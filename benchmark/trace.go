package main

// trace.go is the outside-in layer trace: spans recorded from the benchmark's
// own files around each call into a layer's public function. One goroutine
// records; spans stay in memory and are written as JSON when the run ends.

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one call into a layer. Parent is the ID of the span that caused it,
// 0 for a root; spans of one request share Req. IDs start at 1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Derived marks a span whose duration the layer reported itself
	// (search.run from core.Result.Search.Wall); its start is its parent's.
	Derived bool `json:"derived,omitempty"`
	// Allocs and AllocBytes are heap-allocation deltas over the span, only
	// recorded by a tracer made with newAllocTracer.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// layer is the span name's prefix: "plancache.lookup" belongs to plancache.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans. Every method accepts a nil receiver and then does
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int // open span IDs, innermost last
	allocs bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newAllocTracer also records runtime.MemStats deltas at every boundary.
// Reading them stops the world, so its times mean nothing: allocation counts
// come from a pass of their own.
func newAllocTracer() *tracer { return &tracer{t0: time.Now(), allocs: true} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func (t *tracer) open(name string, parent, req int) int {
	s := span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name}
	if t.allocs {
		s.Allocs, s.AllocBytes = heapAllocs()
	}
	s.StartNS = t.now()
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.ID)
	return s.ID
}

func (t *tracer) top() (parent, req int) {
	if len(t.stack) == 0 {
		return 0, 0
	}
	p := t.stack[len(t.stack)-1]
	return p, t.spans[p-1].Req
}

// beginRoot opens a root span of request req: its "request" span, or one
// that belongs to the request but lies outside that span.
func (t *tracer) beginRoot(name string, req int) int {
	if t == nil {
		return 0
	}
	return t.open(name, 0, req)
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	p, req := t.top()
	return t.open(name, p, req)
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = t.now()
	if t.allocs {
		o, b := heapAllocs()
		s.Allocs, s.AllocBytes = o-s.Allocs, b-s.AllocBytes
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("trace: span " + s.Name + " closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// child records a derived span of duration d under the innermost open span.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil {
		return
	}
	p, req := t.top()
	start := t.spans[p-1].StartNS
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: p, Req: req, Name: name,
		StartNS: start, EndNS: start + int64(d), Derived: true,
	})
}

// selfTimes returns each span's duration minus its children's, by span ID-1.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// traceFile is the JSON written per workload.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
