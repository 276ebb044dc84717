package plancache

import (
	"testing"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/ops"
	"orca/internal/props"
)

// testEntry fabricates a minimal admissible entry.
func testEntry(nParams int) *Entry {
	return &Entry{
		Plan:    &ops.Expr{Op: &ops.Limit{}},
		Cost:    42,
		Stage:   "main",
		NParams: nParams,
	}
}

func TestAdmitLookup(t *testing.T) {
	c := New(1 << 20)
	k := Key{FP: 7, Req: 0, Buckets: 9, MDVersion: 1}
	if _, ok := c.Lookup(k, nil); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Admit(k, testEntry(0)) {
		t.Fatal("Admit refused")
	}
	e, ok := c.Lookup(k, nil)
	if !ok || e.Cost != 42 {
		t.Fatalf("Lookup after Admit: %v, %v", e, ok)
	}
	// Any key component changing must miss.
	for _, miss := range []Key{
		{FP: 8, Req: 0, Buckets: 9, MDVersion: 1},
		{FP: 7, Req: 1, Buckets: 9, MDVersion: 1},
		{FP: 7, Req: 0, Buckets: 10, MDVersion: 1},
		{FP: 7, Req: 0, Buckets: 9, MDVersion: 2},
	} {
		if _, ok := c.Lookup(miss, nil); ok {
			t.Errorf("key %+v hit; want miss", miss)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 5 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}

	// First writer wins: a racing admit does not replace the entry.
	if c.Admit(k, testEntry(0)) {
		t.Error("second Admit of same key succeeded")
	}
}

func TestLookupParamCountMismatch(t *testing.T) {
	c := New(1 << 20)
	k := Key{FP: 3}
	c.Admit(k, testEntry(2))
	// A vector of the wrong length marks the entry corrupt: discarded, miss.
	if _, ok := c.Lookup(k, []base.Datum{base.NewInt(1)}); ok {
		t.Fatal("hit despite parameter-count mismatch")
	}
	if c.Len() != 0 {
		t.Errorf("corrupt entry not evicted: %d entries", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestDisabledCache(t *testing.T) {
	c := New(0)
	if c.Enabled() {
		t.Fatal("zero-budget cache reports enabled")
	}
	k := Key{FP: 1}
	if c.Admit(k, testEntry(0)) {
		t.Error("disabled cache admitted an entry")
	}
	if _, ok := c.Lookup(k, nil); ok {
		t.Error("disabled cache hit")
	}
	var nilCache *Cache
	if nilCache.Enabled() {
		t.Error("nil cache reports enabled")
	}
	if st := nilCache.Stats(); st != (Stats{}) {
		t.Error("nil cache stats nonzero")
	}
}

// TestLRUEviction: the byte budget holds per shard, least-recently-used
// entries go first, and a recently touched entry survives.
func TestLRUEviction(t *testing.T) {
	// A budget small enough that a handful of entries overflow one shard.
	perShard := 4 * entrySizeBytes(testEntry(0))
	c := New(perShard * numShards)
	key := func(i int) Key { return Key{FP: uint64(i) << 6} } // all land in shard 0
	c.Admit(key(0), testEntry(0))
	c.Admit(key(1), testEntry(0))
	c.Admit(key(2), testEntry(0))
	// Touch 0 so 1 becomes the LRU victim when pressure arrives.
	if _, ok := c.Lookup(key(0), nil); !ok {
		t.Fatal("warm entry missing")
	}
	c.Admit(key(3), testEntry(0))
	c.Admit(key(4), testEntry(0))
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.Bytes > perShard {
		t.Errorf("shard over budget: %d > %d", st.Bytes, perShard)
	}
	if _, ok := c.Lookup(key(0), nil); !ok {
		t.Error("recently used entry evicted before LRU")
	}
	if _, ok := c.Lookup(key(1), nil); ok {
		t.Error("LRU entry survived pressure")
	}

	// An entry bigger than a whole shard is refused outright.
	big := testEntry(0)
	for i := 0; i < 400; i++ {
		big.Plan = &ops.Expr{Op: &ops.Limit{}, Children: []*ops.Expr{big.Plan}}
	}
	if c.Admit(Key{FP: 99 << 6}, big) {
		t.Error("entry larger than shard budget admitted")
	}
}

func TestInternReq(t *testing.T) {
	c := New(1 << 20)
	r1 := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(1)}
	r2 := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(1)}
	r3 := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(2)}
	id1, ok1 := c.InternReq(r1)
	id2, ok2 := c.InternReq(r2)
	id3, ok3 := c.InternReq(r3)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("InternReq refused below the cap: %v %v %v", ok1, ok2, ok3)
	}
	if id1 != id2 {
		t.Error("equal requests interned differently")
	}
	if id1 == id3 {
		t.Error("different requests share a ReqID")
	}
}

// TestInternReqBounded: ReqIDs are permanent — keys embed them, so recycling
// would alias live entries — which means the table must be capped or a
// stream of endlessly diverse ORDER BY shapes would leak memory outside the
// byte budget. Past the cap, new property sets are refused (the caller skips
// the cache) while already-interned ones keep resolving.
func TestInternReqBounded(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < maxInternedReqs; i++ {
		r := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(base.ColID(i + 1))}
		if _, ok := c.InternReq(r); !ok {
			t.Fatalf("intern %d refused below the cap", i)
		}
	}
	over := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(base.ColID(maxInternedReqs + 1))}
	if _, ok := c.InternReq(over); ok {
		t.Error("intern past the cap minted a new ReqID")
	}
	known := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(base.ColID(1))}
	if _, ok := c.InternReq(known); !ok {
		t.Error("already-interned request refused at the cap")
	}
}

// TestLookupFaultDiscard: the plancache/* chaos points make a found entry
// untrustworthy — the probe must evict it and report a miss, never serve it.
func TestLookupFaultDiscard(t *testing.T) {
	for _, point := range []fault.Point{fault.PointPlanCacheCorrupt, fault.PointPlanCacheStale} {
		t.Run(point.String(), func(t *testing.T) {
			specs, err := fault.ParseSpecs(point.String() + ":error:every=1")
			if err != nil {
				t.Fatal(err)
			}
			disarm, err := fault.Arm(specs)
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()

			c := New(1 << 20)
			k := Key{FP: 5}
			c.Admit(k, testEntry(0))
			if _, ok := c.Lookup(k, nil); ok {
				t.Fatal("served a distrusted entry under fault")
			}
			if c.Len() != 0 {
				t.Errorf("distrusted entry not evicted: %d entries", c.Len())
			}
			disarm()
			// Post-fault the cache works again: re-admit, clean hit.
			c.Admit(k, testEntry(0))
			if _, ok := c.Lookup(k, nil); !ok {
				t.Error("miss after faults disarmed")
			}
		})
	}
}
