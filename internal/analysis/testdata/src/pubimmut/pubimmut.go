// Package pubimmut exercises the published-object immutability analyzer:
// fixture stand-ins for the plan cache, singleflight group and JSON snapshot
// writer define the publication sites; the functions below mutate
// (or correctly copy) objects after they escape.
package pubimmut

type Entry struct {
	Key     string
	NParams int
}

type Cache struct{}

func (c *Cache) Admit(k string, e *Entry) bool {
	e.Key = k
	return true
}

func (c *Cache) Lookup(k string) *Entry { return nil }

type FlightGroup struct{}

func (g *FlightGroup) Do(k string) (*Entry, bool) { return nil, false }

type flight struct {
	entry *Entry
}

func writeJSON(w any, status int, v any) {}

func BadAfterAdmit(c *Cache, e *Entry) {
	c.Admit("k", e)
	e.NParams = 1 // want "escaped through a plan-cache shard insert"
}

// OKCopyAfterAdmit rebinds a copy before mutating — the rebind-must-copy
// idiom the analyzer enforces.
func OKCopyAfterAdmit(c *Cache, e *Entry) *Entry {
	c.Admit("k", e)
	cp := *e
	cp.NParams = 2
	return &cp
}

func BadLookupMutation(c *Cache) {
	e := c.Lookup("k")
	if e != nil {
		e.NParams = 3 // want "escaped through a plan-cache lookup"
	}
}

func BadFlightResult(g *FlightGroup) {
	e, _ := g.Do("k")
	e.NParams = 4 // want "escaped through a singleflight result"
}

func BadFlightStore(f *flight, e *Entry) {
	f.entry = e
	e.NParams = 5 // want "escaped through a singleflight publication"
}

func BadSnapshot(e *Entry) {
	writeJSON(nil, 200, e)
	e.NParams++ // want "escaped through a JSON response snapshot"
}

func mutateEntry(e *Entry) { e.NParams = 9 }

func BadHelperMutation(c *Cache, e *Entry) {
	c.Admit("k", e)
	mutateEntry(e) // want "mutates e after it escaped"
}

func (e *Entry) bump() { e.NParams++ }

func (e *Entry) size() int { return e.NParams }

func BadMethodMutation(c *Cache, e *Entry) {
	c.Admit("k", e)
	e.bump() // want "mutates e after it escaped"
}

// OKMethodRead calls a non-mutating method on the published entry.
func OKMethodRead(c *Cache, e *Entry) int {
	c.Admit("k", e)
	return e.size()
}

// OKRebind rebinds the name to a fresh object; the published one is no
// longer reachable through it.
func OKRebind(c *Cache, e *Entry) {
	c.Admit("k", e)
	e = &Entry{}
	e.NParams = 7
	_ = e
}

// OKReadAfter only reads the published entry.
func OKReadAfter(c *Cache, e *Entry) int {
	c.Admit("k", e)
	return e.NParams
}
