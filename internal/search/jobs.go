package search

import (
	"fmt"
	"time"

	"orca/internal/base"
	"orca/internal/cost"
	"orca/internal/fault"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/stats"
	"orca/internal/xform"
)

// Optimizer drives the Memo through the optimization workflow using the job
// scheduler. It corresponds to the paper's "Search" component (Figure 3).
//
// Search is goal-driven: one scheduler run per stage starts at the root
// optimization goal Opt(root, req) and pulls in exploration, implementation
// and statistics derivation on demand as dependencies. The Memo is shared
// across stages — a later stage re-enables rules against the same Memo
// (under a new rule-set epoch, see xform.Context.SetRuleSet) and resumes
// search instead of starting over.
type Optimizer struct {
	Memo *memo.Memo
	XCtx *xform.Context
	Cost *cost.Model

	// RulesFired counts rule applications across all stages.
	RulesFired int64
}

// StageParams bounds one optimization stage. The zero value means
// "unbounded": no deadline, no step limit, no resource quota.
type StageParams struct {
	// Deadline ends the stage with ErrTimeout once passed (zero = none).
	Deadline time.Time
	// StepLimit ends the stage with ErrTimeout after this many job steps
	// (0 = none).
	StepLimit int64
	// Quota, when set, is polled before each job step; a non-nil return
	// (conventionally wrapping ErrBudget) aborts the stage through the same
	// best-so-far drain as a timeout. core wires the memory budget and the
	// Memo group limit through it.
	Quota func() error
}

// RunStage performs one optimization stage: a single goal-driven scheduler
// pass from Opt(root, req). It returns the best plan cost found, the run's
// telemetry, and the scheduler error (ErrTimeout when the stage's deadline
// or step budget cut it short, ErrBudget when a resource quota did — the
// Memo then still holds the best plan found so far, extractable via
// Memo.ExtractPlan).
func (o *Optimizer) RunStage(root memo.GroupID, req props.Required, p StageParams) (float64, Stats, error) {
	s := NewScheduler(o.newJob)
	s.SetDeadline(p.Deadline)
	s.SetStepLimit(p.StepLimit)
	s.SetQuotaCheck(p.Quota)
	g := o.Memo.Group(root)
	err := s.Run(optGroupKey(g, o.Memo.InternReq(req)))
	st := s.Stats()
	if err != nil && !Drained(err) {
		return memo.InfCost, st, err
	}
	ctx := g.LookupContext(req)
	if ctx == nil {
		if err == nil {
			err = fmt.Errorf("search: missing optimization context for root")
		}
		return memo.InfCost, st, err
	}
	return ctx.BestCost(), st, err
}

// Goal constructors: value composition only — no formatting, no allocation;
// they run once per spawned child, duplicates included.

func groupKey(kind JobKind, g *memo.Group) JobKey { return JobKey{Kind: kind, Group: g} }

func exprKey(kind JobKind, ge *memo.GroupExpr) JobKey { return JobKey{Kind: kind, Expr: ge} }

func optGroupKey(g *memo.Group, req memo.ReqID) JobKey {
	return JobKey{Kind: JobOpt, Group: g, Req: req}
}

func optExprKey(ge *memo.GroupExpr, req memo.ReqID) JobKey {
	return JobKey{Kind: JobOpt, Expr: ge, Req: req}
}

func xformKey(ge *memo.GroupExpr, rule int) JobKey {
	return JobKey{Kind: JobXform, Expr: ge, Rule: int32(rule)}
}

// job is what every search job starts from: its goal (Group or Expr, and
// Req for Opt goals) and how far it got.
type job struct {
	o *Optimizer
	JobKey
	phase int
}

// newJob materialises the job behind a goal the scheduler has not seen,
// carving it from the Worker's slab of its type.
func (o *Optimizer) newJob(w *Worker, k JobKey) Job {
	switch k.Kind {
	case JobXform:
		j := carve(&w.xforms)
		j.rule, _ = o.XCtx.ActiveRule(int(k.Rule))
		j.job = job{o: o, JobKey: k}
		return j
	case JobOpt:
		req, _ := o.Memo.Req(k.Req)
		if k.Expr == nil {
			j := carve(&w.optGroups)
			j.job, j.req = job{o: o, JobKey: k}, req
			return j
		}
		j := carve(&w.optExprs)
		j.job, j.req = job{o: o, JobKey: k}, req
		return j
	}
	j := carve(&w.jobs)
	*j = job{o: o, JobKey: k}
	group := k.Expr == nil
	switch {
	case k.Kind == JobExp && group:
		return (*expGroupJob)(j)
	case k.Kind == JobExp:
		return (*expGexprJob)(j)
	case k.Kind == JobImp && group:
		return (*impGroupJob)(j)
	case k.Kind == JobImp:
		return (*impGexprJob)(j)
	}
	return (*statsGroupJob)(j)
}

// ---------------------------------------------------------------------------
// Exp(g): generate logically equivalent expressions of all group expressions
// in group g. phase counts the expressions already handed to Exp(gexpr).

type expGroupJob job

func (j *expGroupJob) Step(w *Worker) (bool, error) {
	if j.Group.Explored(j.o.XCtx.Epoch()) {
		return true, nil
	}
	w.exprs = j.Group.AppendExprs(w.exprs[:0])
	for ; j.phase < len(w.exprs); j.phase++ {
		ge := w.exprs[j.phase]
		if _, ok := ge.Op.(ops.Logical); ok {
			w.Spawn(exprKey(JobExp, ge))
		}
	}
	if len(w.children) > 0 {
		// Transformations may add new expressions; re-check on resume.
		return false, nil
	}
	j.Group.SetExplored(j.o.XCtx.Epoch())
	return true, nil
}

// Exp(gexpr): explore one group expression — explore its children first so
// multi-level rule patterns can bind, then fire the exploration rules.

type expGexprJob job

func (j *expGexprJob) Step(w *Worker) (bool, error) {
	switch j.phase {
	case 0:
		j.phase = 1
		for _, cid := range j.Expr.Children {
			w.Spawn(groupKey(JobExp, j.o.Memo.Group(cid)))
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	case 1:
		j.phase = 2
		spawnRules(w, j.Expr, j.o.XCtx.Explorations())
	}
	return len(w.children) == 0, nil
}

// spawnRules spawns Xform(ge, t) for every active rule t that matches ge and
// has not fired on it.
func spawnRules(w *Worker, ge *memo.GroupExpr, rules []xform.ActiveRule) {
	for _, r := range rules {
		if !ge.Applied(r.ID) && r.Matches(ge) {
			w.Spawn(xformKey(ge, r.ID))
		}
	}
}

// ---------------------------------------------------------------------------
// Imp(g) / Imp(gexpr)

type impGroupJob job

func (j *impGroupJob) Step(w *Worker) (bool, error) {
	if j.Group.Implemented(j.o.XCtx.Epoch()) {
		return true, nil
	}
	switch j.phase {
	case 0:
		j.phase = 1
		w.Spawn(groupKey(JobExp, j.Group))
		return false, nil
	case 1:
		j.phase = 2
		w.exprs = j.Group.AppendExprs(w.exprs[:0])
		for _, ge := range w.exprs {
			if _, ok := ge.Op.(ops.Logical); ok {
				w.Spawn(exprKey(JobImp, ge))
			}
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	default:
		j.Group.SetImplemented(j.o.XCtx.Epoch())
		return true, nil
	}
}

type impGexprJob job

func (j *impGexprJob) Step(w *Worker) (bool, error) {
	if j.phase == 0 {
		j.phase = 1
		spawnRules(w, j.Expr, j.o.XCtx.Implementations())
	}
	return len(w.children) == 0, nil
}

// ---------------------------------------------------------------------------
// Xform(gexpr, t)

type xformJob struct {
	job
	rule xform.ActiveRule
}

func (j *xformJob) Step(*Worker) (bool, error) {
	if j.Expr.MarkApplied(j.rule.ID) {
		if err := fault.Inject(fault.PointSearchXformApply); err != nil {
			return false, err
		}
		if err := j.rule.Apply(j.o.XCtx, j.Expr); err != nil {
			return false, err
		}
		j.o.RulesFired++
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Stats(g): derive statistics for a group on demand (paper §4.1 step 2 made
// lazy): triggered as a dependency of the first Opt goal touching the group,
// after dependency jobs derived the statistics of the input groups — the
// promising expression's children and, for CTE consumers, the producer group.

type statsGroupJob job

func (j *statsGroupJob) Step(w *Worker) (bool, error) {
	if j.Group.Stats() != nil {
		return true, nil
	}
	if j.phase == 0 {
		j.phase = 1
		for _, src := range j.o.Memo.StatsSources(j.Group.ID, j.o.XCtx.Stats) {
			w.Spawn(groupKey(JobStats, j.o.Memo.Group(src)))
		}
		if len(w.children) > 0 {
			return false, nil
		}
	}
	_, err := j.o.Memo.DeriveStats(j.Group.ID, j.o.XCtx.Stats)
	return err == nil, err
}

// ---------------------------------------------------------------------------
// Opt(g, req): find the least-cost plan rooted in group g satisfying req.

type optGroupJob struct {
	job
	req props.Required
	ctx *memo.OptContext
}

func (j *optGroupJob) Step(w *Worker) (bool, error) {
	if j.ctx == nil {
		j.ctx, _ = j.Group.Context(j.req)
	}
	if j.ctx.Done(j.o.XCtx.Epoch()) {
		return true, nil
	}
	switch j.phase {
	case 0:
		j.phase = 1
		w.Spawn(groupKey(JobImp, j.Group))
		return false, nil
	case 1:
		j.phase = 2
		// Statistics become necessary the moment this group's expressions are
		// costed; deriving them as a dependency job (rather than an eager
		// whole-Memo sweep) keeps derivation to groups search actually reaches.
		w.Spawn(groupKey(JobStats, j.Group))
		return false, nil
	case 2:
		j.phase = 3
		if err := j.Group.AddEnforcers(j.req); err != nil {
			return false, err
		}
		w.exprs = j.Group.AppendExprs(w.exprs[:0])
		for _, ge := range w.exprs {
			_, phys := ge.Op.(ops.Physical)
			if phys && (!ge.IsEnforcer() || memo.EnforcerUseful(ge.Op, j.req)) {
				w.Spawn(optExprKey(ge, j.Req))
			}
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	default:
		j.ctx.MarkDone(j.o.XCtx.Epoch())
		return true, nil
	}
}

// Opt(gexpr, req): cost one group expression under a request, enumerating
// its child-request alternatives.

type optGexprJob struct {
	job // phase is the alternative in flight
	req props.Required
	ctx *memo.OptContext // the owning group's context for req
	// alts are the child-request alternatives and ids their interned
	// requests (memo.GroupExpr.ChildReqs): shared and read-only, unless ids
	// is backed by idBuf, where two alternatives of a binary operator fit.
	alts    [][]props.Required
	ids     []memo.ReqID
	idBuf   [4]memo.ReqID
	spawned bool
}

func (j *optGexprJob) Step(w *Worker) (bool, error) {
	if j.ctx == nil {
		j.ctx = j.Expr.Group().ContextByID(j.Req) // created by the Opt(g, req) job that spawned this goal
		j.alts, j.ids = j.Expr.ChildReqs(j.req, j.idBuf[:0])
	}
	n := len(j.Expr.Children)
	for ; j.phase < len(j.alts); j.phase++ {
		ids := j.ids[j.phase*n : (j.phase+1)*n]
		if j.selfCycle(ids) {
			continue
		}
		if !j.spawned {
			j.spawned = true
			for i, id := range ids {
				w.Spawn(optGroupKey(j.o.Memo.Group(j.Expr.Children[i]), id))
			}
			if n > 0 {
				return false, nil
			}
		}
		// Children optimized: evaluate this alternative.
		if err := j.evaluate(w, j.alts[j.phase], ids); err != nil {
			return false, err
		}
		j.spawned = false
	}
	return true, nil
}

// selfCycle reports whether an alternative asks this expression's own group
// for the very request being optimized (possible only for enforcers), which
// would recurse forever.
func (j *optGexprJob) selfCycle(ids []memo.ReqID) bool {
	for i, id := range ids {
		if j.Expr.Children[i] == j.Expr.Group().ID && id == j.Req {
			return true
		}
	}
	return false
}

// evaluate combines the children's best plans for one alternative, checks
// delivered properties against the request, costs the plan and offers it to
// the group's context (paper §4.1 step 4).
func (j *optGexprJob) evaluate(w *Worker, alt []props.Required, ids []memo.ReqID) error {
	o := j.o
	childDerived, childRows := w.derived[:0], w.rows[:0]
	total := 0.0
	for i, cid := range j.Expr.Children {
		cctx := o.Memo.Group(cid).ContextByID(ids[i])
		if cctx == nil {
			return nil // child not optimizable under this request
		}
		_, cand, ok := cctx.Best()
		if !ok {
			return nil
		}
		childDerived = append(childDerived, cand.Delivered)
		// Normally a Stats job derived these already (DeriveStats then just
		// returns them); enforcer insertion can create expressions whose child
		// groups were never reached by a stats job on this path.
		cs, err := o.Memo.DeriveStats(cid, o.XCtx.Stats)
		if err != nil {
			return err
		}
		childRows = append(childRows, cs.Rows)
		total += cand.Cost
	}
	w.derived, w.rows = childDerived, childRows // keep the grown buffers
	phys := j.Expr.Op.(ops.Physical)
	delivered := phys.Derive(childDerived)
	if !delivered.Satisfies(j.req) {
		return nil
	}
	if err := fault.Inject(fault.PointCostCompute); err != nil {
		return err
	}
	gs, err := o.Memo.DeriveStats(j.Expr.Group().ID, o.XCtx.Stats)
	if err != nil {
		return err
	}
	local := o.Cost.LocalCost(j.Expr.Op, cost.Inputs{
		OutRows: gs.Rows, ChildRows: childRows, Delivered: delivered, Skew: j.skew(gs, delivered)})
	cand := memo.Candidate{ChildReqs: alt, LocalCost: local, Cost: local + total, Delivered: delivered}
	j.Expr.AddCandidate(j.Req, cand)
	j.ctx.Offer(j.Expr, cand)
	return nil
}

// skew estimates the data-skew multiplier for operators that hash-partition
// data, from the group's histogram of the first hashing column.
func (j *optGexprJob) skew(gs *stats.Stats, delivered props.Derived) float64 {
	var col base.ColID = -1
	switch op := j.Expr.Op.(type) {
	case *ops.Redistribute:
		if len(op.Cols) > 0 {
			col = op.Cols[0]
		}
	case *ops.HashJoin:
		if delivered.Dist.Kind == props.DistHashed && len(delivered.Dist.Cols) > 0 {
			col = delivered.Dist.Cols[0]
		}
	default:
		return 1
	}
	if col < 0 {
		return 1
	}
	if h := gs.Hist(col); h != nil {
		return h.SkewRatio()
	}
	return 1
}
