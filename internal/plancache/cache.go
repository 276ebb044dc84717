package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/ops"
	"orca/internal/props"
)

// numShards is the cache's shard fan-out: 64 keeps lock contention
// negligible next to even a cache-hit request's other work.
const numShards = 64

// ReqID is an interned required-property identity (see Cache.InternReq). The
// Memo hands out dense ReqIDs per group; the plan cache needs one namespace
// across all shapes, so it interns Required values itself with full Equal
// verification — two requests map to the same ReqID iff the properties are
// exactly equal, never merely hash-equal.
type ReqID uint32

// Key identifies one cached plan: a shape fingerprint, the interned required
// properties the plan was optimized for, the selectivity-bucket hash of the
// producing constants, and the metadata version stamp observed when the plan
// was built. A metadata invalidation bumps the stamp, so every dependent
// entry stops matching — stale plans die by unreachability and are swept out
// by LRU pressure rather than by a scan.
type Key struct {
	FP        uint64
	Req       ReqID
	Buckets   uint64
	MDVersion int64
}

// Entry is one parameterized physical plan with the metadata needed to
// synthesize an optimization result on a hit without touching the scheduler.
type Entry struct {
	// Plan is the parameterized physical tree; every constant the producing
	// request supplied is replaced by an ops.Param ordinal into the request
	// vector. Shared by all hits — callers must Rebind, never mutate.
	Plan *ops.Expr
	// Cost is the producing optimization's best cost (approximate for later
	// hits — their constants differ within the same selectivity bucket).
	Cost float64
	// Stage names the search stage that produced the plan.
	Stage string
	// NParams is the length of the producing parameter vector; a hit with a
	// different vector length is structurally impossible and treated as a
	// corrupt entry.
	NParams int

	key  Key
	size int64
	elem *list.Element
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Entries   int64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	lru     list.List // front = most recently used
	bytes   int64
}

// Cache is the sharded, size-accounted parameterized plan cache. Entries are
// evicted LRU per shard when the shard exceeds its share of the byte budget,
// and defensively when the plancache/* fault points fire on a hit (see
// Lookup).
type Cache struct {
	shards   [numShards]shard
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64

	reqMu sync.RWMutex
	reqs  props.Interner[props.Required]
}

// New returns a cache bounded by maxBytes (shared across all shards).
// maxBytes <= 0 disables admission: lookups always miss and Admit is a no-op,
// so a disabled cache degrades to plain re-optimization everywhere.
func New(maxBytes int64) *Cache {
	c := &Cache{maxBytes: maxBytes}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*Entry)
	}
	return c
}

// Enabled reports whether the cache can hold anything at all.
func (c *Cache) Enabled() bool { return c != nil && c.maxBytes > 0 }

// maxInternedReqs bounds the ReqID intern table. ReqIDs are never evicted —
// keys embed them, so recycling one would alias live cache entries — which
// means the table must be capped or a long-lived server receiving endlessly
// diverse ORDER BY shapes would leak memory outside the byte budget. Real
// workloads use a handful of distinct required-property sets; a shape that
// would mint an ID past the cap is simply not cacheable (InternReq reports
// ok=false and the caller optimizes uncached).
const maxInternedReqs = 4096

// InternReq maps required properties to a stable ReqID with exact-equality
// verification (hash collisions allocate distinct IDs). ok is false when the
// properties are not yet interned and the table is at maxInternedReqs — the
// caller must then skip the cache for this request.
func (c *Cache) InternReq(r props.Required) (ReqID, bool) {
	c.reqMu.RLock()
	id, ok := c.reqs.Lookup(r)
	c.reqMu.RUnlock()
	if ok {
		return ReqID(id), true
	}
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if id, ok := c.reqs.Lookup(r); ok {
		return ReqID(id), true
	}
	if c.reqs.Len() >= maxInternedReqs {
		return 0, false
	}
	return ReqID(c.reqs.Intern(r)), true
}

func (c *Cache) shardFor(k Key) *shard { return &c.shards[k.FP&(numShards-1)] }

// Lookup probes for a plan matching the key and validates it against the
// request's parameter vector. The plancache/corrupt-entry and
// plancache/stale-version fault points fire here, after an entry is found:
// either firing makes the probe distrust the entry — it is evicted and the
// probe reports a miss — so under chaos a poisoned cache costs one
// re-optimization, never a wrong plan. The same discard path handles a
// genuinely inconsistent entry (parameter-count mismatch).
func (c *Cache) Lookup(k Key, vec []base.Datum) (*Entry, bool) {
	if !c.Enabled() {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	// Fault points run outside the shard lock: the delay action sleeps.
	if err := fault.Inject(fault.PointPlanCacheCorrupt); err == nil {
		err = fault.Inject(fault.PointPlanCacheStale)
		if err == nil && e.NParams != len(vec) {
			err = errParamCount
		}
		if err == nil {
			s.mu.Lock()
			// Revalidate under the lock — the entry may have been evicted or
			// replaced while the probes ran.
			if cur, still := s.entries[k]; still && cur == e {
				s.lru.MoveToFront(e.elem)
				s.mu.Unlock()
				c.hits.Add(1)
				return e, true
			}
			s.mu.Unlock()
			c.misses.Add(1)
			return nil, false
		}
	}
	c.discard(s, k, e)
	c.misses.Add(1)
	return nil, false
}

// Peek returns the entry under k when its parameter count matches nParams.
// Unlike Lookup it is not a probe: it counts neither a hit nor a miss, runs
// no fault point and leaves the LRU order alone. A singleflight leader uses
// it to pick up the entry a flight that ended just before its own admitted.
func (c *Cache) Peek(k Key, nParams int) (*Entry, bool) {
	if !c.Enabled() {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	s.mu.Unlock()
	if !ok || e.NParams != nParams {
		return nil, false
	}
	return e, true
}

// errParamCount marks an entry whose parameter count no longer matches the
// shape's vector — impossible unless the entry is corrupt.
var errParamCount = &paramCountErr{}

type paramCountErr struct{}

func (*paramCountErr) Error() string { return "plancache: entry parameter count mismatch" }

// discard removes a distrusted entry if it is still the one that was probed.
func (c *Cache) discard(s *shard, k Key, e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.entries[k]; ok && cur == e {
		c.removeLocked(s, e)
		c.evictions.Add(1)
	}
}

// Admit inserts a parameterized plan. First writer wins: if the key is
// already present the existing entry is kept, so a singleflight race cannot
// flap the LRU. Admission policy — what must never be cached (degraded
// plans, aborted or timed-out stages, unparameterizable shapes) — is the
// caller's job, because only the caller sees the optimization outcome; the
// cache enforces only its byte budget, evicting least-recently-used entries
// of the admitting shard until it fits.
func (c *Cache) Admit(k Key, e *Entry) bool {
	if !c.Enabled() || e == nil || e.Plan == nil {
		return false
	}
	e.key = k
	e.size = entrySizeBytes(e)
	shardBudget := c.maxBytes / numShards
	if e.size > shardBudget {
		return false // a plan bigger than a whole shard would evict everything
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok {
		return false
	}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	s.bytes += e.size
	c.bytes.Add(e.size)
	c.entries.Add(1)
	for s.bytes > shardBudget {
		tail := s.lru.Back()
		if tail == nil || tail == e.elem {
			break
		}
		c.removeLocked(s, tail.Value.(*Entry))
		c.evictions.Add(1)
	}
	return true
}

func (c *Cache) removeLocked(s *shard, e *Entry) {
	delete(s.entries, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.size
	c.bytes.Add(-e.size)
	c.entries.Add(-1)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
	}
}

// Len returns the live entry count (for tests).
func (c *Cache) Len() int { return int(c.entries.Load()) }
