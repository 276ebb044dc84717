package md

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"orca/internal/base"
	"orca/internal/fault"
	"orca/internal/gpos"
)

func testRelForRetry(t *testing.T) (*MemProvider, *Relation) {
	t.Helper()
	p := NewMemProvider()
	Build(p, TableSpec{
		Name: "t", Rows: 100, Policy: DistHash, DistCols: []int{0},
		Cols: []ColSpec{{Name: "a", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100}},
	})
	id, err := p.LookupRelation(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := p.GetObject(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return p, obj.(*Relation)
}

// flakyProvider fails the first `failures` lookups with a transient error,
// then delegates.
type flakyProvider struct {
	*MemProvider
	failures int32
	left     atomic.Int32
}

func (f *flakyProvider) GetObject(ctx context.Context, id MDId) (Object, error) {
	if f.left.Add(-1) >= 0 {
		return nil, Transient(errors.New("catalog backend restarting"))
	}
	return f.MemProvider.GetObject(ctx, id)
}

func (f *flakyProvider) LookupRelation(ctx context.Context, name string) (MDId, error) {
	if f.left.Add(-1) >= 0 {
		return MDId{}, Transient(errors.New("catalog backend restarting"))
	}
	return f.MemProvider.LookupRelation(ctx, name)
}

func TestRetryAbsorbsTransientFailures(t *testing.T) {
	p, rel := testRelForRetry(t)
	flaky := &flakyProvider{MemProvider: p}
	flaky.left.Store(2)
	acc := NewAccessor(NewCache(nil), flaky)
	acc.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, InitialBackoff: time.Millisecond})

	obj, err := acc.Get(rel.Mdid)
	if err != nil {
		t.Fatalf("retried lookup failed: %v", err)
	}
	if obj.ID() != rel.Mdid {
		t.Fatalf("got object %s, want %s", obj.ID(), rel.Mdid)
	}
	if got := acc.LookupRetries(); got != 2 {
		t.Fatalf("LookupRetries = %d, want 2", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	p, rel := testRelForRetry(t)
	flaky := &flakyProvider{MemProvider: p}
	flaky.left.Store(100)
	acc := NewAccessor(NewCache(nil), flaky)
	acc.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond})

	_, err := acc.Get(rel.Mdid)
	if err == nil {
		t.Fatal("want failure after attempt budget, got nil")
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("want the last transient error, got %T: %v", err, err)
	}
	if got := acc.LookupRetries(); got != 2 {
		t.Fatalf("LookupRetries = %d, want 2 (3 attempts)", got)
	}
}

func TestRetryTerminalErrorNotRetried(t *testing.T) {
	p, _ := testRelForRetry(t)
	acc := NewAccessor(NewCache(nil), p)
	acc.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, InitialBackoff: time.Millisecond})

	// A missing object is terminal: retrying cannot create it.
	_, err := acc.Get(MDId{OID: 424242, Major: 1})
	var nf *ErrNotFound
	if !errors.As(err, &nf) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if got := acc.LookupRetries(); got != 0 {
		t.Fatalf("LookupRetries = %d for a terminal error, want 0", got)
	}
}

func TestRetryRespectsRequestDeadline(t *testing.T) {
	p, rel := testRelForRetry(t)
	flaky := &flakyProvider{MemProvider: p}
	flaky.left.Store(1000)
	acc := NewAccessor(NewCache(nil), flaky)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	acc.BindContext(ctx)
	// Backoffs of ~1s could retry for minutes; the 30ms deadline must cut
	// the loop after at most one backoff window.
	acc.SetRetryPolicy(RetryPolicy{MaxAttempts: 1000, InitialBackoff: time.Second})

	start := time.Now()
	_, err := acc.Get(rel.Mdid)
	if err == nil {
		t.Fatal("want failure, got nil")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored the request deadline: ran %v", elapsed)
	}
}

func TestRetryFaultPointInjectsTransient(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{
		Point:  fault.PointServeMDTransient,
		Action: fault.ActError,
		Limit:  2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	p, rel := testRelForRetry(t)
	acc := NewAccessor(NewCache(nil), p)
	acc.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, InitialBackoff: time.Millisecond})
	if _, err := acc.Get(rel.Mdid); err != nil {
		t.Fatalf("injected transient faults should be absorbed by retry: %v", err)
	}
	if got := acc.LookupRetries(); got != 2 {
		t.Fatalf("LookupRetries = %d, want 2", got)
	}
}

// TestRetryDisabledByDefault pins the zero-policy behavior: one attempt, the
// raw error surfaces (here an injected fault, which stays a structured
// gpos.Exception through the Transient wrapper).
func TestRetryDisabledByDefault(t *testing.T) {
	disarm, err := fault.Arm([]fault.Spec{{
		Point:  fault.PointServeMDTransient,
		Action: fault.ActError,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	p, rel := testRelForRetry(t)
	acc := NewAccessor(NewCache(nil), p)
	_, gerr := acc.Get(rel.Mdid)
	if gerr == nil {
		t.Fatal("want injected failure with retry disabled")
	}
	if ex := gpos.AsException(gerr); ex == nil || ex.Code != fault.CodeInjected {
		t.Fatalf("want structured injected exception, got %v", gerr)
	}
	if !IsTransient(gerr) {
		t.Fatal("injected serve/md/transient-error should classify as transient")
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"marked", Transient(errors.New("x")), true},
		{"wrapped-marked", gpos.Wrap(Transient(errors.New("x")), gpos.CompMD, "C", "m"), true},
		{"not-found", NotFound("object x"), false},
		{"timeout", gpos.Raise(gpos.CompMD, CodeLookupTimeout, "t"), true},
		{"cancelled", gpos.Raise(gpos.CompMD, CodeLookupCancelled, "c"), false},
		{"plain", errors.New("x"), false},
		{"ctx", context.Canceled, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRetryBackoffBounds holds each jittered sleep to [base/2, base], with
// the doubled base capped at 500ms however large InitialBackoff or the
// retry number grow.
func TestRetryBackoffBounds(t *testing.T) {
	cases := []struct {
		name     string
		policy   RetryPolicy
		retry    int
		min, max time.Duration
	}{
		{"first retry, default base", RetryPolicy{MaxAttempts: 2}, 1, 2500 * time.Microsecond, 5 * time.Millisecond},
		{"capped", RetryPolicy{MaxAttempts: 30, InitialBackoff: time.Second}, 20, 250 * time.Millisecond, 500 * time.Millisecond},
	}
	for _, c := range cases {
		for i := 0; i < 100; i++ {
			if d := c.policy.backoff(c.retry); d < c.min || d > c.max {
				t.Fatalf("%s: backoff(%d) = %v, want in [%v, %v]", c.name, c.retry, d, c.min, c.max)
			}
		}
	}
}
