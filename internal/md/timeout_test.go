package md

import (
	"context"
	"testing"
	"time"

	"orca/internal/fault"
	"orca/internal/gpos"
)

// slowProvider delays every lookup, cooperating with context cancellation.
type slowProvider struct {
	*MemProvider
	delay time.Duration
}

func (s *slowProvider) GetObject(ctx context.Context, id MDId) (Object, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.MemProvider.GetObject(ctx, id)
}

func (s *slowProvider) LookupRelation(ctx context.Context, name string) (MDId, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return MDId{}, ctx.Err()
	}
	return s.MemProvider.LookupRelation(ctx, name)
}

func wantTimeout(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want lookup timeout, got nil error")
	}
	ex := gpos.AsException(err)
	if ex == nil {
		t.Fatalf("want gpos.Exception, got %T: %v", err, err)
	}
	if ex.Comp != gpos.CompMD || ex.Code != CodeLookupTimeout {
		t.Fatalf("want %s/%s, got %s/%s", gpos.CompMD, CodeLookupTimeout, ex.Comp, ex.Code)
	}
}

func TestLookupTimeoutSlowProvider(t *testing.T) {
	p, rel := testRel(t)
	slow := &slowProvider{MemProvider: p, delay: time.Second}
	acc := NewAccessor(NewCache(nil), slow)
	acc.SetLookupTimeout(10 * time.Millisecond)

	_, err := acc.Get(rel.Mdid)
	wantTimeout(t, err)

	_, err = acc.RelationByName("t")
	wantTimeout(t, err)
}

func TestLookupNoTimeoutByDefault(t *testing.T) {
	p, rel := testRel(t)
	// Zero timeout runs the lookup inline, however slow: use a small delay so
	// the test stays fast while proving no deadline applies.
	slow := &slowProvider{MemProvider: p, delay: 20 * time.Millisecond}
	acc := NewAccessor(NewCache(nil), slow)
	if _, err := acc.Get(rel.Mdid); err != nil {
		t.Fatalf("unbounded lookup failed: %v", err)
	}
}

func TestLookupTimeoutCacheHitUnaffected(t *testing.T) {
	p, rel := testRel(t)
	cache := NewCache(nil)
	warm := NewAccessor(cache, p)
	if _, err := warm.Get(rel.Mdid); err != nil {
		t.Fatal(err)
	}
	// A second accessor with a hung provider still serves cache hits.
	acc := NewAccessor(cache, &slowProvider{MemProvider: p, delay: time.Hour})
	acc.SetLookupTimeout(10 * time.Millisecond)
	if _, err := acc.Get(rel.Mdid); err != nil {
		t.Fatalf("cache hit should not consult the provider: %v", err)
	}
}

// TestNameLookupInlineInMemory checks that the in-memory catalog resolves
// names inline: under a timeout no goroutine hand-off could meet, a name
// still resolves (its relation is cached, so no fetch is timed).
func TestNameLookupInlineInMemory(t *testing.T) {
	p, rel := testRel(t)
	cache := NewCache(nil)
	if _, err := NewAccessor(cache, p).Get(rel.Mdid); err != nil {
		t.Fatal(err)
	}
	acc := NewAccessor(cache, p)
	acc.SetLookupTimeout(time.Nanosecond)
	for i := 0; i < 100; i++ {
		if got, err := acc.RelationByName("t"); err != nil || got != rel {
			t.Fatalf("RelationByName = %v, %v; want the cached relation", got, err)
		}
	}
}

// TestLookupTimeoutViaFaultDelay ties the fault framework to the timeout: an
// injected provider-fetch latency is subject to the lookup deadline because
// the fault point sits inside the timed call.
func TestLookupTimeoutViaFaultDelay(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{
		Point:  fault.PointMDProviderFetch,
		Action: fault.ActDelay,
		Delay:  200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	p, rel := testRel(t)
	acc := NewAccessor(NewCache(nil), p)
	acc.SetLookupTimeout(10 * time.Millisecond)
	_, err = acc.Get(rel.Mdid)
	wantTimeout(t, err)
}

func TestCacheLookupFaultPoint(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{
		Point:  fault.PointMDCacheLookup,
		Action: fault.ActError,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	p, rel := testRel(t)
	acc := NewAccessor(NewCache(nil), p)
	_, err = acc.Get(rel.Mdid)
	ex := gpos.AsException(err)
	if ex == nil || ex.Comp != gpos.CompMD || ex.Code != fault.CodeInjected {
		t.Fatalf("want injected %s fault, got %v", gpos.CompMD, err)
	}
}
