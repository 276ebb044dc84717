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

func TestGoalIdentityInternsEqualRequests(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	g := leafExpr(t, m, 0).Group().ID
	r1, r2 := hashedOrdered(false, false), hashedOrdered(false, false)
	if &r1.Order.Items[0] == &r2.Order.Items[0] || &r1.Dist.Cols[0] == &r2.Dist.Cols[0] {
		t.Fatal("test requests must not share backing arrays")
	}
	w := Worker{o: &Optimizer{Memo: m}}
	j1, j2 := w.optGroup(g, m.InternReq(r1)), w.optGroup(g, m.InternReq(r2))
	if j1 != j2 {
		t.Errorf("Equal requests from separate slices produced distinct goals: %v vs %v", j1, j2)
	}
}

// Expression-level goals have no identity to test: the one step that spawns
// each of them builds its job.
func TestGoalIdentityDistinguishes(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	g, other := leafExpr(t, m, 0).Group().ID, leafExpr(t, m, 1).Group().ID
	plain := m.InternReq(hashedOrdered(false, false))
	w := Worker{o: &Optimizer{Memo: m}}
	goals := []func() Job{
		func() Job { return w.optGroup(g, plain) },
		func() Job { return w.optGroup(g, m.InternReq(hashedOrdered(false, true))) }, // Rewindable only
		func() Job { return w.optGroup(g, m.InternReq(hashedOrdered(true, false))) }, // order direction only
		func() Job { return w.optGroup(other, plain) },                               // group only
		func() Job { return w.groupJob(JobExp, g) },
		func() Job { return w.groupJob(JobImp, g) }, // same group, different job family
		func() Job { return w.groupJob(JobStats, g) },
		func() Job { return w.groupJob(JobExp, other) },
	}
	for i := 0; i < 20; i++ { // more requests than one optGoals holds
		req := props.Required{Dist: props.Distribution{Kind: props.DistHashed, Cols: []base.ColID{base.ColID(i)}}}
		goals = append(goals, func() Job { return w.optGroup(g, m.InternReq(req)) })
	}
	seen := map[*node]int{}
	for i, goal := range goals {
		n := goal().state()
		if j, ok := seen[n]; ok {
			t.Errorf("goals %d and %d share one job", j, i)
		}
		seen[n] = i
	}
	for i, goal := range goals {
		if n := goal().state(); seen[n] != i {
			t.Errorf("goal %d registered again got another job", i)
		}
	}
}

func TestEnqueueRegisteredGoalAllocatesNothing(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	g := leafExpr(t, m, 0).Group().ID
	req := hashedOrdered(true, true)
	s := &Scheduler{w: Worker{o: &Optimizer{Memo: m}}}
	parent := s.w.groupJob(JobExp, g)
	for _, j := range []Job{s.w.optGroup(g, m.InternReq(req)), s.w.groupJob(JobStats, g)} {
		s.enqueue(j, nil)
		s.complete(j.state())
	}
	// The whole duplicate path: intern the request, look the goal up, find
	// it finished.
	allocs := testing.AllocsPerRun(1000, func() {
		if s.enqueue(s.w.optGroup(g, m.InternReq(req)), parent) || s.enqueue(s.w.groupJob(JobStats, g), parent) {
			t.Fatal("a finished goal made its parent wait")
		}
	})
	if allocs != 0 {
		t.Errorf("re-registering a finished goal allocated %.1f times per call, want 0", allocs)
	}
	if c := s.w.groups[g].opts; c.n != 1 || c.next != nil {
		t.Error("the group holds two Opt jobs for one request")
	}
}

func TestJobStringNamesTheGoal(t *testing.T) {
	m := memo.New(&gpos.MemoryAccountant{})
	ge := leafExpr(t, m, 7)
	id := m.InternReq(hashedOrdered(true, true))
	w := Worker{o: &Optimizer{Memo: m}}
	for _, c := range []struct {
		job  Job
		want []string
	}{
		{w.optGroup(ge.Group().ID, id), []string{"opt(g0, ", "{Hashed(1,2), <3 desc>, rewind}"}},
		{&optGexprJob{job: job{node: node{kind: JobOpt}, Expr: ge, Req: id}}, []string{"opt(g0: ", ge.String(), "{Hashed(1,2), <3 desc>, rewind}"}},
		{&xformJob{job: job{node: node{kind: JobXform}, Expr: ge}}, []string{"xform(g0: ", "JoinCommutativity"}},
		{w.groupJob(JobStats, ge.Group().ID), []string{"stats(g0)"}},
		// A goal whose group has no Memo (test stand-ins) still renders.
		{&optGroupJob{job: job{node: node{kind: JobOpt}, Group: &memo.Group{ID: 5}, Req: 3}}, []string{"opt(g5, req#3)"}},
	} {
		got := c.job.String()
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Errorf("%q does not contain %q", got, want)
			}
		}
	}
}
