package search

import (
	"fmt"
	"slices"
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
	s := &Scheduler{w: Worker{o: o}, p: p}
	err := s.Run(s.w.optGroup(root, o.Memo.InternReq(req)))
	st := s.Stats()
	if err != nil && !Drained(err) {
		return memo.InfCost, st, err
	}
	ctx := o.Memo.Group(root).LookupContext(req)
	if ctx == nil {
		if err == nil {
			err = fmt.Errorf("search: missing optimization context for root")
		}
		return memo.InfCost, st, err
	}
	return ctx.BestCost(), st, err
}

// job is what every search job starts from: its goal (Group or Expr, and
// Req for Opt goals) and how far it got.
type job struct {
	node
	Group *memo.Group     // group-level goals
	Expr  *memo.GroupExpr // expression-level goals
	Req   memo.ReqID      // Opt goals: the Memo-interned request
	phase int
}

// newJob takes a job for a goal from the Worker's pool.
func (w *Worker) newJob(kind JobKind, g *memo.Group, ge *memo.GroupExpr) *job {
	j := w.jobs.get()
	j.kind, j.Group, j.Expr = kind, g, ge
	return j
}

// String renders the goal, e.g. "opt(g3, {Singleton, <1>})". It resolves
// the request text through the Memo: cold paths only.
func (j *job) String() string { return j.goal("") }

// goal renders the goal with extra appended inside the parentheses.
func (j *job) goal(extra string) string {
	g, target := j.Group, ""
	if j.Expr != nil {
		g, target = j.Expr.Group(), ": "+j.Expr.String()
	}
	if j.kind == JobOpt {
		if req, ok := g.Memo().Req(j.Req); ok {
			target += ", " + req.String()
		} else {
			target += fmt.Sprintf(", req#%d", j.Req)
		}
	}
	return fmt.Sprintf("%s(g%d%s%s)", j.kind, g.ID, target, extra)
}

// groupGoals are one group's goals in a run, each built when first spawned:
// Exp(g), Imp(g) and Stats(g) by kind, and the Opt(g, req) goals.
type groupGoals struct {
	opts optGoals
	jobs [NumJobKinds]*job
}

// optGoals holds up to seven of a group's Opt(g, req) jobs beside their
// requests, so a probe scans request ids rather than jobs. Most groups have
// no more requests than fit in their groupGoals; next holds the rest.
type optGoals struct {
	reqs [7]memo.ReqID
	n    int32
	jobs [7]*optGroupJob
	next *optGoals
}

// goals returns the group's entry in the run's table, growing the table as
// groups appear.
func (w *Worker) goals(id memo.GroupID) *groupGoals {
	if int(id) >= len(w.groups) {
		w.groups = append(w.groups, make([]groupGoals, int(id)+1-len(w.groups))...)
	}
	return &w.groups[id]
}

// groupJob returns the run's Exp(g), Imp(g) or Stats(g) job.
func (w *Worker) groupJob(kind JobKind, g memo.GroupID) *job {
	slot := &w.goals(g).jobs[kind]
	if *slot == nil {
		*slot = w.newJob(kind, w.o.Memo.Group(g), nil)
	}
	return *slot
}

// optGroup returns the run's Opt(g, req) job.
func (w *Worker) optGroup(g memo.GroupID, req memo.ReqID) *optGroupJob {
	c := &w.goals(g).opts
	for {
		if i := slices.Index(c.reqs[:c.n], req); i >= 0 {
			return c.jobs[i]
		}
		if c.next == nil {
			break
		}
		c = c.next
	}
	if int(c.n) == len(c.reqs) {
		c.next = w.optOverflow.get()
		c = c.next
	}
	j := w.optGroups.get()
	j.kind, j.Group, j.Req = JobOpt, w.o.Memo.Group(g), req
	c.reqs[c.n], c.jobs[c.n] = req, j
	c.n++
	return j
}

// Step runs one step of the Exp, Imp or Stats job the goal names.
func (j *job) Step(w *Worker) (bool, error) {
	switch {
	case j.kind == JobStats:
		return j.statsGroup(w)
	case j.kind == JobExp && j.Expr == nil:
		return j.expGroup(w)
	case j.kind == JobExp:
		return j.expGexpr(w)
	case j.Expr == nil:
		return j.impGroup(w)
	}
	return j.impGexpr(w)
}

// ---------------------------------------------------------------------------
// Exp(g): generate logically equivalent expressions of all group expressions
// in group g. phase counts the expressions already handed to Exp(gexpr).
func (j *job) expGroup(w *Worker) (bool, error) {
	if j.Group.Explored(w.o.XCtx.Epoch()) {
		return true, nil
	}
	w.exprs = j.Group.AppendExprs(w.exprs[:0])
	for ; j.phase < len(w.exprs); j.phase++ {
		ge := w.exprs[j.phase]
		if _, ok := ge.Op.(ops.Logical); ok {
			w.Spawn(w.newJob(JobExp, nil, ge))
		}
	}
	if len(w.children) > 0 {
		// Transformations may add new expressions; re-check on resume.
		return false, nil
	}
	j.Group.SetExplored(w.o.XCtx.Epoch())
	return true, nil
}

// Exp(gexpr): explore one group expression — explore its children first so
// multi-level rule patterns can bind, then fire the exploration rules.
func (j *job) expGexpr(w *Worker) (bool, error) {
	switch j.phase {
	case 0:
		j.phase = 1
		for _, cid := range j.Expr.Children {
			w.Spawn(w.groupJob(JobExp, cid))
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	case 1:
		j.phase = 2
		spawnRules(w, j.Expr, w.o.XCtx.Explorations())
	}
	return len(w.children) == 0, nil
}

// spawnRules spawns Xform(ge, t) for every active rule t that matches ge and
// has not fired on it.
func spawnRules(w *Worker, ge *memo.GroupExpr, rules []xform.ActiveRule) {
	for _, r := range rules {
		if !ge.Applied(r.ID) && r.Matches(ge) {
			j := w.xforms.get()
			j.kind, j.Expr, j.rule = JobXform, ge, r
			w.Spawn(j)
		}
	}
}

// ---------------------------------------------------------------------------
// Imp(g) / Imp(gexpr)
func (j *job) impGroup(w *Worker) (bool, error) {
	if j.Group.Implemented(w.o.XCtx.Epoch()) {
		return true, nil
	}
	switch j.phase {
	case 0:
		j.phase = 1
		w.Spawn(w.groupJob(JobExp, j.Group.ID))
		return false, nil
	case 1:
		j.phase = 2
		w.exprs = j.Group.AppendExprs(w.exprs[:0])
		for _, ge := range w.exprs {
			if _, ok := ge.Op.(ops.Logical); ok {
				w.Spawn(w.newJob(JobImp, nil, ge))
			}
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	default:
		j.Group.SetImplemented(w.o.XCtx.Epoch())
		return true, nil
	}
}

func (j *job) impGexpr(w *Worker) (bool, error) {
	if j.phase == 0 {
		j.phase = 1
		spawnRules(w, j.Expr, w.o.XCtx.Implementations())
	}
	return len(w.children) == 0, nil
}

// ---------------------------------------------------------------------------
// Xform(gexpr, t)

type xformJob struct {
	job
	rule xform.ActiveRule
}

func (j *xformJob) String() string { return j.goal(", " + xform.RuleNameFor(j.rule.ID)) }

func (j *xformJob) Step(w *Worker) (bool, error) {
	if j.Expr.MarkApplied(j.rule.ID) {
		if err := fault.Inject(fault.PointSearchXformApply); err != nil {
			return false, err
		}
		if err := j.rule.Apply(w.o.XCtx, j.Expr); err != nil {
			return false, err
		}
		w.o.RulesFired++
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Stats(g): derive statistics for a group on demand (paper §4.1 step 2 made
// lazy): triggered as a dependency of the first Opt goal touching the group,
// after dependency jobs derived the statistics of the input groups — the
// promising expression's children and, for CTE consumers, the producer group.
func (j *job) statsGroup(w *Worker) (bool, error) {
	if j.Group.Stats() != nil {
		return true, nil
	}
	if j.phase == 0 {
		j.phase = 1
		for _, src := range w.o.Memo.StatsSources(j.Group.ID, w.o.XCtx.Stats) {
			w.Spawn(w.groupJob(JobStats, src))
		}
		if len(w.children) > 0 {
			return false, nil
		}
	}
	_, err := w.o.Memo.DeriveStats(j.Group.ID, w.o.XCtx.Stats)
	return err == nil, err
}

// ---------------------------------------------------------------------------
// Opt(g, req): find the least-cost plan rooted in group g satisfying req.

type optGroupJob struct {
	job
	ctx *memo.OptContext
}

func (j *optGroupJob) Step(w *Worker) (bool, error) {
	if j.ctx == nil {
		j.ctx, _ = j.Group.Context(j.Req)
	}
	if j.ctx.Done(w.o.XCtx.Epoch()) {
		return true, nil
	}
	switch j.phase {
	case 0:
		j.phase = 1
		w.Spawn(w.groupJob(JobImp, j.Group.ID))
		return false, nil
	case 1:
		j.phase = 2
		// Statistics become necessary the moment this group's expressions are
		// costed; deriving them as a dependency job (rather than an eager
		// whole-Memo sweep) keeps derivation to groups search actually reaches.
		w.Spawn(w.groupJob(JobStats, j.Group.ID))
		return false, nil
	case 2:
		j.phase = 3
		if err := j.Group.AddEnforcers(j.ctx.Req); err != nil {
			return false, err
		}
		j.ctx.Open()
		w.exprs = j.Group.AppendExprs(w.exprs[:0])
		for _, ge := range w.exprs {
			_, phys := ge.Op.(ops.Physical)
			if phys && (!ge.IsEnforcer() || memo.EnforcerUseful(ge.Op, j.ctx.Req)) {
				c := w.optExprs.get()
				c.kind, c.Expr, c.Req, c.ctx = JobOpt, ge, j.Req, j.ctx
				w.Spawn(c)
			}
		}
		if len(w.children) > 0 {
			return false, nil
		}
		fallthrough
	default:
		j.ctx.MarkDone(w.o.XCtx.Epoch())
		return true, nil
	}
}

// Opt(gexpr, req): cost one group expression under a request, enumerating
// its child-request alternatives.

type optGexprJob struct {
	job                  // phase is the alternative in flight
	ctx *memo.OptContext // the owning group's context for Req
	// ids are the interned child requests of the alts alternatives
	// (memo.GroupExpr.ChildReqs), the Memo's and read-only, at offset off
	// of its id chunks.
	ids  []memo.ReqID
	off  int32
	alts int
	// kids are the Opt(child, req) jobs of the alternative in flight, in
	// child order, backed by kidBuf up to a binary operator; nil until it
	// spawns them.
	kids   []*optGroupJob
	kidBuf [2]*optGroupJob
}

func (j *optGexprJob) Step(w *Worker) (bool, error) {
	if j.alts == 0 {
		j.ids, j.off, j.alts = j.Expr.ChildReqs(j.Req, &w.reqs)
	}
	n := len(j.Expr.Children)
	for ; j.phase < j.alts; j.phase++ {
		ids := j.ids[j.phase*n : (j.phase+1)*n]
		if j.selfCycle(ids) {
			continue
		}
		if j.kids == nil {
			j.kids = j.kidBuf[:0]
			for i, id := range ids {
				kid := w.optGroup(j.Expr.Children[i], id)
				j.kids = append(j.kids, kid)
				w.Spawn(kid)
			}
			if n > 0 {
				return false, nil
			}
		}
		// Children optimized: evaluate this alternative.
		if err := j.evaluate(w); err != nil {
			return false, err
		}
		j.kids = nil
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

// evaluate combines the children's best plans for the alternative in
// flight, read from the contexts of the jobs that optimized them, checks
// delivered properties against the request, costs the plan and records it
// in the local table and the group's context (paper §4.1 step 4).
func (j *optGexprJob) evaluate(w *Worker) error {
	o := w.o
	childDerived, childRows := w.derived[:0], w.rows[:0]
	total := 0.0
	childIDs := w.dids[:0]
	for i, cid := range j.Expr.Children {
		id, cost, ok := j.kids[i].ctx.BestDelivered()
		if !ok {
			return nil // child not optimizable under this request
		}
		d, _ := o.Memo.Derived(id)
		childIDs = append(childIDs, id)
		childDerived = append(childDerived, d)
		// Normally a Stats job derived these already (DeriveStats then just
		// returns them); enforcer insertion can create expressions whose child
		// groups were never reached by a stats job on this path.
		cs, err := o.Memo.DeriveStats(cid, o.XCtx.Stats)
		if err != nil {
			return err
		}
		childRows = append(childRows, cs.Rows)
		total += cost
	}
	w.derived, w.rows, w.dids = childDerived, childRows, childIDs // keep the grown buffers
	phys := j.Expr.Op.(ops.Physical)
	delivered := phys.Derive(childDerived)
	if !delivered.Satisfies(j.ctx.Req) {
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
	n := int32(len(j.Expr.Children))
	j.ctx.Record(j.Expr, j.phase, j.off+int32(j.phase)*n, n, local, local+total, j.deliveredID(w, delivered))
	return nil
}

// deliveredID returns the interned id of the alternative's delivery. Most
// operators deliver what one of their children does, whose id costing
// already holds; only other deliveries are hashed into the Memo's table.
func (j *optGexprJob) deliveredID(w *Worker, d props.Derived) memo.DerivedID {
	for i := range w.derived {
		if w.derived[i].Equal(d) {
			return w.dids[i]
		}
	}
	return w.o.Memo.InternDerived(d)
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
