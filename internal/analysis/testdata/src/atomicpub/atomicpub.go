// Package atomicpub exercises the publish analyzer's atomic publication
// rule: every write to shared state must precede the atomic store that
// publishes it. (Plain access to a typed atomic does not compile, and go
// vet's copylocks check reports copies of one.)
package atomicpub

import "sync/atomic"

// node is shared state published through an atomic pointer.
type node struct {
	val  int
	next *node
}

type list struct {
	head atomic.Pointer[node]
}

// PublishThenWire stores the node first and wires it afterwards — the
// ordering bug class this analyzer exists for. n is a parameter, so another
// goroutine can already reach it when the write lands.
func (l *list) PublishThenWire(n *node, v int) {
	l.head.Store(n)
	n.val = v // want `plain write to n\.val after atomic publication`
}

// WireThenPublish is the verified pattern: all writes dominate the store.
func (l *list) WireThenPublish(v int) {
	n := &node{}
	n.val = v
	n.next = nil
	l.head.Store(n)
}

// FreshAfterStore wires a still-private local after an unrelated store; no
// other goroutine can observe m yet, so the write is safe.
func (l *list) FreshAfterStore(v int) *node {
	m := &node{}
	l.head.Store(nil)
	m.val = v
	return m
}

// IndexAfterStore matches the Memo's directory-slot pattern: index writes
// after a store stay exempt because slot visibility is gated by a later
// atomic counter store, not by the write itself.
func (l *list) IndexAfterStore(chunks [][]*node, g *node) {
	l.head.Store(g)
	chunks[0] = append(chunks[0], g)
	chunks[0][0] = g
}
