// Package hotpath exercises the //orcavet:hotpath annotation grammar, the
// hot-site classes, allowance waivers, interprocedural propagation along warm
// call edges and monomorphic interface edges, and cold-path pruning.
package hotpath

import (
	"fmt"
	"sync"
)

var (
	sink      []int
	sinkBytes []byte
)

type item struct {
	name string
}

type store struct {
	mu    sync.Mutex
	items []*item
	index map[string]*item
}

// Probe is a stand-in for a fingerprint-shard probe: locks and formatting on
// the lookup path are exactly what the analyzer exists to flag.
//
//orcavet:hotpath memo probe stand-in
func (s *store) Probe(name string) *item {
	s.mu.Lock() // want `hot path: mutex acquisition s\.mu\.Lock\(\) outside the accessor pins in //orcavet:hotpath function hotpath\.store\)\.Probe`
	it := s.index[name]
	s.mu.Unlock()
	msg := fmt.Sprintf("probe %s", name) // want `hot path: call to fmt\.Sprintf in //orcavet:hotpath function hotpath\.store\)\.Probe`
	_ = msg
	return it
}

// Insert waives the alloc class (the ledger append is amortized) but not the
// lock class: the allowance is scoped, not blanket.
//
//orcavet:hotpath:alloc ledger append is amortized
func (s *store) Insert(name string) {
	it := &item{name: name}
	s.items = append(s.items, it)
	s.mu.Lock() // want `hot path: mutex acquisition s\.mu\.Lock\(\) outside the accessor pins`
	s.items[0] = it
	s.mu.Unlock()
}

// Fingerprint propagates its annotation into hashNames along the warm static
// call edge.
//
//orcavet:hotpath fingerprint probe stand-in
func Fingerprint(names []string) int {
	return hashNames(names)
}

func hashNames(names []string) int {
	parts := make([]int, 0, len(names)) // want `hot path: escaping make\(\[\]int\) in hotpath\.hashNames \(reachable from //orcavet:hotpath hotpath\.Fingerprint\)`
	for _, n := range names {
		parts = append(parts, len(n))
	}
	sink = parts
	h := 0
	for _, v := range parts {
		h += v
	}
	return h
}

type probeError struct{ msg string }

func (e *probeError) Error() string { return e.msg }

// Checked shows cold-path pruning: construction and formatting of a definite
// failure value in a block ending with its return is error plumbing, not a
// hot-path regression.
//
//orcavet:hotpath probe with a failure tail
func Checked(names []string) error {
	if len(names) == 0 {
		return &probeError{msg: fmt.Sprintf("empty probe at %d", len(names))}
	}
	return nil
}

// Drain defers inside a loop: the defers pile up until return.
//
//orcavet:hotpath drain loop stand-in
func (s *store) Drain() {
	for _, it := range s.items {
		defer release(it) // want `hot path: defer inside a loop`
	}
}

func release(*item) {}

// Names iterates a map into an ordered sink: plan output must not depend on
// map iteration order.
//
//orcavet:hotpath snapshot stand-in
func (s *store) Names() []string {
	var out []string
	for name := range s.index { // want `hot path: map iteration feeds ordered output`
		out = append(out, name)
	}
	return out
}

// Total builds a capturing closure per call.
//
//orcavet:hotpath cost evaluation stand-in
func Total(items []*item) int {
	n := 0
	walk := func(it *item) { n += len(it.name) } // want `hot path: closure captures n`
	for _, it := range items {
		walk(it)
	}
	return n
}

type display interface{ Display() string }

type namedVal struct{ v int }

func (n namedVal) Display() string { return "boxed" }

func sinkDisplay(d display) { _ = d }

// Box passes a concrete value where an interface is expected: the conversion
// heap-allocates.
//
//orcavet:hotpath boxing stand-in
func Box(n namedVal) {
	sinkDisplay(n) // want `hot path: interface boxing: orcavet\.test/hotpath\.namedVal argument boxed into orcavet\.test/hotpath\.display`
}

// Key concatenates strings on the render path.
//
//orcavet:hotpath key render stand-in
func Key(a, b string) string {
	return a + b // want `hot path: string concatenation`
}

type stepper interface{ Step() }

type onlyImpl struct{ n int }

func (o *onlyImpl) Step() {
	buf := make([]byte, o.n) // want `hot path: escaping make\(\[\]byte\) in hotpath\.onlyImpl\)\.Step \(reachable from //orcavet:hotpath hotpath\.Dispatch\)`
	sinkBytes = buf
}

// Dispatch calls through an interface with exactly one visible
// implementation: the monomorphic edge is followed.
//
//orcavet:hotpath dispatch stand-in
func Dispatch(s stepper) {
	s.Step()
}

type multi interface{ Go() }

type m1 struct{}

func (m1) Go() { sinkBytes = make([]byte, 1) }

type m2 struct{}

func (m2) Go() { sinkBytes = make([]byte, 2) }

// Boundary dispatches through a polymorphic interface: propagation stops at
// the boundary, so neither implementation's allocation is attributed here.
//
//orcavet:hotpath polymorphic boundary stand-in
func Boundary(m multi) {
	m.Go()
}

// BadAllowEmpty has a trailing comma in its allowance scope.
//
//orcavet:hotpath:alloc, wanted a second class // want `malformed //orcavet:hotpath directive: empty allowance in scope`
func BadAllowEmpty() {}

// BadAllowFmt tries to waive the unwaivable.
//
//orcavet:hotpath:fmt best effort // want `malformed //orcavet:hotpath directive: allowance "fmt" cannot be waived on a hot path`
func BadAllowFmt() {}

// Floating hosts a directive that is not a function doc comment.
func Floating() {
	//orcavet:hotpath floating reason // want `//orcavet:hotpath directive must be in a function declaration's doc comment`
	_ = 0
}

// deriveOnce is reachable from a hot root but runs once per object: the
// declared boundary keeps its allocation (and its callees) out of the root's
// closure.
//
//orcavet:coldpath runs once per object, behind a nil check
func deriveOnce(n int) []int {
	return buildTable(n)
}

func buildTable(n int) []int { return make([]int, n) }

// Cached probes a lazily derived table: the derivation is a cold boundary.
//
//orcavet:hotpath cached probe stand-in
func Cached(n int) int {
	if sink == nil {
		sink = deriveOnce(n)
	}
	return len(sink)
}

// BadColdNoReason omits the mandatory reason.
//
/*orcavet:coldpath*/   // want `malformed //orcavet:coldpath directive: missing reason`
func BadColdNoReason() {}

// BadBoth claims to be hot and cold at once.
//
//orcavet:hotpath contradictory stand-in
//orcavet:coldpath contradictory stand-in
func BadBoth() {} // want `function is annotated both //orcavet:hotpath and //orcavet:coldpath`

// FloatingCold hosts a cold directive that is not a function doc comment.
func FloatingCold() {
	//orcavet:coldpath floating reason // want `//orcavet:coldpath directive must be in a function declaration's doc comment`
	_ = 0
}
