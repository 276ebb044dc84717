package search

import (
	"reflect"
	"testing"

	"orca/internal/gpos"
	"orca/internal/memo"
	"orca/internal/xform"
)

// TestReleasedJobsComeBackZeroed pins the pools' contract: a completed
// expression-level job is handed out again, with none of its old state,
// while a group-level job, which the goal tables point at, never is.
func TestReleasedJobsComeBackZeroed(t *testing.T) {
	m := memo.New(&gpos.OwnedAccountant{})
	ge := leafExpr(t, m, 1)
	var w Worker

	opt := w.optExprs.get()
	opt.kind, opt.Expr, opt.phase, opt.alts, opt.off = JobOpt, ge, 2, 3, 5
	opt.kids = append(opt.kidBuf[:0], w.optGroups.get())
	opt.waiters = []Job{opt}
	xf := w.xforms.get()
	xf.kind, xf.Expr, xf.rule = JobXform, ge, xform.ActiveRule{ID: 7}
	exp := w.newJob(JobExp, nil, ge)
	exp.phase, exp.done = 2, true
	group := w.newJob(JobExp, ge.Group(), nil)
	group.done = true
	for _, j := range []Job{opt, xf, exp, group} {
		w.release(j)
	}

	if got := w.optExprs.get(); got != opt || !reflect.ValueOf(*got).IsZero() {
		t.Errorf("Opt(gexpr) job back as %p %+v, want %p zeroed", got, *got, opt)
	}
	if got := w.xforms.get(); got != xf || !reflect.ValueOf(*got).IsZero() {
		t.Errorf("Xform job back as %p %+v, want %p zeroed", got, *got, xf)
	}
	if got := w.jobs.get(); got != exp || !reflect.ValueOf(*got).IsZero() {
		t.Errorf("Exp(gexpr) job back as %p %+v, want %p zeroed", got, *got, exp)
	}
	if got := w.jobs.get(); got == group {
		t.Error("a group-level job was handed out again while its goal table points at it")
	}
}
