package plancache

import (
	"sync"
	"sync/atomic"
	"testing"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/props"
)

// TestStressAdmitLookupMDBump hammers one cache from many goroutines with
// interleaved Admit/Lookup/InternReq traffic while the metadata version
// rotates underneath (the invalidation path: a bump makes every dependent
// key stop matching) and both plancache/* fault points are armed at low
// probability, so the distrust-and-discard path in Lookup races against
// admission and LRU eviction. Run under -race by check.sh's plancache race
// gate; the assertions are consistency-only because the interleaving is
// nondeterministic.
func TestStressAdmitLookupMDBump(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine stress loop")
	}
	specs, err := fault.ParseSpecs(
		fault.PointPlanCacheCorrupt.String() + ":error:prob=0.05:seed=17," +
			fault.PointPlanCacheStale.String() + ":error:prob=0.05:seed=29")
	if err != nil {
		t.Fatal(err)
	}
	disarm, err := fault.Arm(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	// A budget small enough that admission pressure keeps the LRU evicting
	// concurrently with the fault-driven discards.
	maxBytes := int64(numShards) * 4 * entrySizeBytes(testEntry(1))
	c := New(maxBytes)
	var mdVersion atomic.Int64
	mdVersion.Store(1)

	const (
		workers  = 8
		opsEach  = 3000
		keySpace = 96 // > 4 per shard on average, so eviction pressure is real
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vec := []base.Datum{base.NewInt(int64(w))}
			for i := 0; i < opsEach; i++ {
				fp := uint64((w*31 + i) % keySpace)
				r := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(base.ColID(fp%4 + 1))}
				id, ok := c.InternReq(r)
				if !ok {
					t.Errorf("InternReq refused far below the cap")
					return
				}
				k := Key{FP: fp, Req: id, Buckets: fp % 8, MDVersion: mdVersion.Load()}
				switch i % 4 {
				case 0:
					c.Admit(k, testEntry(1))
				case 1, 2:
					if e, hit := c.Lookup(k, vec); hit && e.NParams != 1 {
						t.Errorf("hit returned an entry with NParams=%d, want 1", e.NParams)
					}
				case 3:
					// The md-bump interleaving: worker 0 occasionally
					// invalidates everything; everyone else probes a key one
					// version behind, which must miss or hit consistently,
					// never crash or serve a mismatched entry.
					if w == 0 && i%500 == 250 {
						mdVersion.Add(1)
					} else {
						stale := k
						stale.MDVersion--
						c.Lookup(stale, vec)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("counters went negative: %+v", st)
	}
	if st.Bytes > maxBytes {
		t.Errorf("cache over budget after stress: %d > %d", st.Bytes, maxBytes)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("stress loop recorded no lookups")
	}
	if int64(c.Len()) != st.Entries {
		t.Errorf("Len()=%d disagrees with Stats().Entries=%d", c.Len(), st.Entries)
	}

	// With the faults disarmed the survivor must behave like a fresh cache:
	// admit, clean hit, no residual distrust.
	disarm()
	k := Key{FP: 7777, MDVersion: mdVersion.Load()}
	if !c.Admit(k, testEntry(0)) {
		// The key may collide with a survivor of the stress run; that is
		// first-writer-wins, not a failure.
		t.Logf("post-stress Admit kept an existing entry for %+v", k)
	}
	if _, ok := c.Lookup(k, nil); !ok {
		t.Error("cache wedged after stress: post-disarm lookup missed an admitted key")
	}
}
