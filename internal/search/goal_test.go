package search

import (
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/gpos"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
)

// leafExpr inserts a fresh one-expression group and returns its expression.
func leafExpr(t *testing.T, m *memo.Memo, id int) *memo.GroupExpr {
	t.Helper()
	ge, err := m.InsertExpr(&ops.CTEConsumer{ID: id}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	return ge
}

// hashedOrdered builds the same request from fresh slices on every call.
func hashedOrdered(desc, rewind bool) props.Required {
	return props.Required{
		Dist:       props.Distribution{Kind: props.DistHashed, Cols: []base.ColID{1, 2}},
		Order:      props.OrderSpec{Items: []props.OrderItem{{Col: 3, Desc: desc}}},
		Rewindable: rewind,
	}
}

// enqueued registers the goals on a fresh scheduler and returns the number of
// distinct jobState nodes they map to.
func enqueued(keys ...JobKey) int {
	s := NewScheduler(nil)
	for _, k := range keys {
		s.enqueue(k, nil)
	}
	return len(s.registry)
}

func TestGoalIdentityInternsEqualRequests(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	ge := leafExpr(t, m, 0)
	g := ge.Group()
	r1, r2 := hashedOrdered(false, false), hashedOrdered(false, false)
	if &r1.Order.Items[0] == &r2.Order.Items[0] || &r1.Dist.Cols[0] == &r2.Dist.Cols[0] {
		t.Fatal("test requests must not share backing arrays")
	}
	k1, k2 := optGroupKey(g, m.InternReq(r1)), optGroupKey(g, m.InternReq(r2))
	if k1 != k2 {
		t.Errorf("Equal requests from separate slices produced distinct goals: %v vs %v", k1, k2)
	}
	if n := enqueued(k1, k2, optExprKey(ge, m.InternReq(r1)), optExprKey(ge, m.InternReq(r2))); n != 2 {
		t.Errorf("registry holds %d jobStates, want 2 (one Opt(g, req), one Opt(gexpr, req))", n)
	}
}

func TestGoalIdentityDistinguishes(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	ge, other := leafExpr(t, m, 0), leafExpr(t, m, 1)
	plain := m.InternReq(hashedOrdered(false, false))
	keys := []JobKey{
		optExprKey(ge, plain),
		optExprKey(ge, m.InternReq(hashedOrdered(false, true))), // Rewindable only
		optExprKey(ge, m.InternReq(hashedOrdered(true, false))), // order direction only
		optExprKey(other, plain),                                // gexpr only
		optGroupKey(ge.Group(), plain),                          // group- vs expression-level
		xformKey(ge, 1),
		xformKey(ge, 2), // rule id only
		xformKey(other, 1),
		exprKey(JobExp, ge),
		exprKey(JobImp, ge), // same expression, different job family
		groupKey(JobExp, ge.Group()),
		groupKey(JobImp, ge.Group()),
		groupKey(JobStats, ge.Group()),
	}
	if n := enqueued(keys...); n != len(keys) {
		t.Errorf("registry holds %d jobStates for %d distinct goals", n, len(keys))
	}
}

func TestEnqueueRegisteredGoalAllocatesNothing(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	g := leafExpr(t, m, 0).Group()
	req := hashedOrdered(true, true)
	s := NewScheduler(nil)
	s.enqueue(optGroupKey(g, m.InternReq(req)), nil)
	// The whole duplicate path: intern the request, compose the goal, probe.
	allocs := testing.AllocsPerRun(1000, func() {
		s.enqueue(optGroupKey(g, m.InternReq(req)), nil)
	})
	if allocs != 0 {
		t.Errorf("enqueuing an already-registered goal allocated %.1f times per call, want 0", allocs)
	}
	if len(s.registry) != 1 {
		t.Errorf("registry holds %d jobStates, want 1", len(s.registry))
	}
}

func TestJobKeyStringNamesTheGoal(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	ge := leafExpr(t, m, 7)
	id := m.InternReq(hashedOrdered(true, true))
	for _, c := range []struct {
		key  JobKey
		want []string
	}{
		{optGroupKey(ge.Group(), id), []string{"opt(g0, ", "{Hashed(1,2), <3 desc>, rewind}"}},
		{optExprKey(ge, id), []string{"opt(g0: ", ge.String(), "{Hashed(1,2), <3 desc>, rewind}"}},
		{xformKey(ge, 0), []string{"xform(g0: ", "JoinCommutativity"}},
		{groupKey(JobStats, ge.Group()), []string{"stats(g0)"}},
		// A goal whose group has no Memo (test stand-ins) still renders.
		{JobKey{Kind: JobOpt, Group: &memo.Group{ID: 5}, Req: 3}, []string{"opt(g5, req#3)"}},
	} {
		got := c.key.String()
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%q does not contain %q", got, w)
			}
		}
	}
}
