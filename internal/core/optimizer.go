package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"orca/internal/base"
	"orca/internal/cost"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/search"
	"orca/internal/stats"
	"orca/internal/xform"
)

// Query is a bound query handed to the optimizer: the logical tree plus the
// query-level requirements of DXL's query message (output columns, sorting
// columns, result distribution — paper Listing 1; the result distribution is
// always Singleton: results are gathered to the master).
type Query struct {
	Tree     *ops.Expr
	Order    props.OrderSpec
	OutCols  []base.ColID
	OutNames []string

	Factory  *md.ColumnFactory
	Accessor *md.Accessor
}

// StageRun records one optimization stage's outcome.
type StageRun struct {
	// Name is the stage's configured name.
	Name string
	// Cost is the best root plan cost after the stage (InfCost if none).
	Cost float64
	// TimedOut reports the stage hit its Timeout, StepLimit or the request
	// deadline; the Memo then keeps the best plan found so far instead of
	// discarding the stage.
	TimedOut bool
	// Aborted reports a resource guard (Config.MemoryBudget or MaxGroups)
	// cut the stage short. Like TimedOut, the best plan found so far is kept.
	Aborted bool
	// RulesFired counts transformation-rule applications in this stage.
	RulesFired int64
	// Search is the stage's scheduler telemetry.
	Search search.Stats
}

// Result is the outcome of one optimization session.
type Result struct {
	// Plan is the extracted physical plan.
	Plan *ops.Expr
	// Cost is the plan's estimated cost.
	Cost float64
	// Stage names the optimization stage that produced the plan.
	Stage string

	// Groups and GroupExprs describe the final Memo size.
	Groups     int
	GroupExprs int
	// RulesFired counts transformation-rule applications.
	RulesFired int64
	// Duration is the optimization wall-clock time.
	Duration time.Duration
	// PeakMemBytes is the accountant's high-water mark.
	PeakMemBytes int64

	// Search aggregates the scheduler telemetry of all stages.
	Search search.Stats
	// StageRuns lists each executed stage's outcome in run order.
	StageRuns []StageRun

	// Memo, RootGroup and RootReq expose the search state for tooling (TAQO
	// plan sampling, tests). All stages share this one Memo.
	Memo      *memo.Memo
	RootGroup memo.GroupID
	RootReq   props.Required

	// Degraded reports the plan came from the degradation ladder rather than
	// the normal optimization pass (paper §6.1: fail the query gracefully,
	// never the process).
	Degraded bool
	// DegradedRung names the ladder rung that produced the plan:
	// RungHeuristic (reduced rule set) or RungMinimal (direct translation).
	DegradedRung string
	// Failure is the exception that made the normal pass fail and engaged
	// the ladder (nil when the normal pass succeeded).
	Failure *gpos.Exception
	// DumpPath is where the diagnostic (AMPERe) dump for Failure was
	// written; empty when no Config.DumpCapture hook is installed.
	DumpPath string
}

// Degradation-ladder rung names reported in Result.DegradedRung.
const (
	RungHeuristic = "heuristic"
	RungMinimal   = "minimal"
)

// Optimize runs the full optimization workflow over a bound query
// (paper §4.1): normalize, copy-in to the Memo, then one goal-driven search
// pass per configured stage starting at the root optimization goal
// {Singleton, <order>}. Exploration, implementation and statistics
// derivation are scheduled on demand as dependencies of that goal rather
// than as whole-Memo phases.
//
// All stages share the Memo: a later stage re-enables rules against the
// accumulated groups and resumes search under its own rule-set epoch, so
// work done by earlier stages (exploration, implementation, costing,
// statistics) is never repeated. A stage cut short by its timeout, step
// budget or resource guard keeps the best plan found so far. The best plan
// across stages wins; a stage finishing under its cost threshold
// short-circuits the remaining stages.
//
// When the normal pass fails outright — an exception, a contained panic, or
// every stage aborted without a plan — and Config.DisableDegradation is
// false, Optimize walks a degradation ladder (paper §6.1) instead of
// returning the error: first a heuristic pass with a reduced rule set, then
// a minimal direct translation of the logical tree. The returned Result
// reports Degraded, the rung taken, the triggering Failure, and the path of
// the diagnostic dump captured through Config.DumpCapture.
func Optimize(q *Query, cfg Config) (*Result, error) {
	return OptimizeContext(context.Background(), q, cfg)
}

// OptimizeContext is Optimize bound to a request context: the context is
// attached to the query's metadata accessor (so cancelling it cancels
// in-flight provider lookups), its deadline bounds every stage like a stage
// Timeout (a stage it cuts short keeps its best plan so far and reports
// TimedOut), and it is checked between optimization stages, so a cancelled
// request stops after the running stage instead of walking the remaining
// stage ladder. Cancellation surfaces as an ordinary optimization failure;
// with degradation enabled the ladder still runs, which is intentional — a
// degraded plan beats no plan even for an impatient caller.
func OptimizeContext(ctx context.Context, q *Query, cfg Config) (*Result, error) {
	// A misconfiguration, not an optimization failure: no ladder, no dump.
	if ex := cfg.unknownRule(); ex != nil {
		return nil, ex
	}
	if len(cfg.Faults) > 0 {
		disarm, err := fault.Arm(cfg.Faults)
		if err != nil {
			return nil, err
		}
		defer disarm()
	}
	if q.Accessor != nil {
		q.Accessor.SetLookupTimeout(cfg.MDLookupTimeout)
		q.Accessor.SetRetryPolicy(cfg.MDRetry)
		q.Accessor.BindContext(ctx)
	}

	res, err := containedPass(ctx, q, cfg)
	if err == nil || cfg.DisableDegradation {
		return res, err
	}

	failure := gpos.AsException(err)
	if failure == nil {
		failure = gpos.Wrap(err, gpos.CompOptimizer, "OptimizationFailed", "optimization failed")
	}
	var dumpPath string
	if cfg.DumpCapture != nil {
		dumpPath = capturedDump(q, cfg, failure)
	}

	// Rung 1: heuristic. Retry with the exploration rules (except the greedy
	// n-ary join expansion) switched off — a much smaller, more predictable
	// search that avoids most failure surface while still producing a costed
	// plan.
	hcfg := cfg
	hcfg.DisableDegradation = true
	hcfg.Stages = []Stage{{Name: "degraded-heuristic"}}
	hcfg.DisabledRules = append(append([]string(nil), cfg.DisabledRules...), heuristicDisabled()...)
	if hres, herr := containedPass(ctx, q, hcfg); herr == nil {
		hres.Degraded = true
		hres.DegradedRung = RungHeuristic
		hres.Failure = failure
		hres.DumpPath = dumpPath
		return hres, nil
	}

	// Rung 2: minimal. Translate the logical tree directly into an
	// all-singleton physical plan — no search, statistics or costing; this
	// rung only fails if the tree contains an untranslatable operator.
	start := time.Now()
	plan, merr := containedMinimal(q)
	if merr != nil {
		return nil, errors.Join(err, merr)
	}
	return &Result{
		Plan:         plan,
		Cost:         memo.InfCost,
		Stage:        RungMinimal,
		Duration:     time.Since(start),
		Degraded:     true,
		DegradedRung: RungMinimal,
		Failure:      failure,
		DumpPath:     dumpPath,
	}, nil
}

// heuristicDisabled lists what the heuristic rung switches off: every
// exploration rule except the greedy n-ary join expansion, which alone turns
// an NAryJoin into one implementable binary tree. Derived from the rule set
// so a rule added to or removed from defs/rules.opt cannot desynchronise it.
func heuristicDisabled() []string {
	var names []string
	for _, r := range xform.DefaultRules() {
		if _, greedy := r.(*xform.ExpandNAryJoinGreedy); r.Kind() == xform.Exploration && !greedy {
			names = append(names, r.Name())
		}
	}
	return names
}

// containedPass runs optimizePass behind a panic-containment boundary: the
// scheduler already contains panics raised inside job steps, but the pass
// also runs code on the calling goroutine (normalization, Memo copy-in, plan
// extraction), and a panic there must likewise fail the query, not the
// process. The recovered exception keeps the original panic site's stack.
func containedPass(ctx context.Context, q *Query, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, gpos.PanicException(gpos.CompOptimizer, r)
		}
	}()
	return optimizePass(ctx, q, cfg)
}

// containedMinimal is minimalPlan behind the same containment boundary, so
// the ladder's bottom rung cannot crash the process either.
func containedMinimal(q *Query) (plan *ops.Expr, err error) {
	defer func() {
		if r := recover(); r != nil {
			plan, err = nil, gpos.PanicException(gpos.CompOptimizer, r)
		}
	}()
	return minimalPlan(q)
}

// capturedDump invokes the Config.DumpCapture hook behind a containment
// boundary: diagnostic capture is best-effort and must never turn a rescued
// failure into a crash (the harvest path has its own fault points).
func capturedDump(q *Query, cfg Config, failure *gpos.Exception) (path string) {
	defer func() {
		if r := recover(); r != nil {
			path = ""
		}
	}()
	return cfg.DumpCapture(q, cfg, failure)
}

// optimizePass is one complete optimization workflow (normalize, copy-in,
// staged search, extraction) with no degradation handling.
func optimizePass(ctx context.Context, q *Query, cfg Config) (*Result, error) {
	start := time.Now()
	mem := &gpos.MemoryAccountant{}

	if err := fault.Inject(fault.PointCoreNormalize); err != nil {
		return nil, err
	}
	tree, err := Normalize(q.Tree, q.Factory)
	if err != nil {
		return nil, err
	}

	m := memo.New(mem)
	root, err := m.Insert(tree)
	if err != nil {
		return nil, err
	}
	m.SetRoot(root)

	sctx := stats.NewContext(q.Accessor)
	xctx := &xform.Context{
		Memo:       m,
		Stats:      sctx,
		Accessor:   q.Accessor,
		ColFactory: q.Factory,
		Segments:   cfg.Segments,
	}
	segments := cfg.Segments
	if segments < 1 {
		segments = 1
	}
	opt := &search.Optimizer{
		Memo: m,
		XCtx: xctx,
		Cost: cost.NewModel(cost.DefaultParams(segments)),
	}
	rules := xform.DefaultRules()
	req := props.Required{Dist: props.SingletonDist, Order: q.Order}

	// Resource guards: a poll evaluated by the scheduler before every job
	// step. Tripping one drains the stage like a timeout — best-so-far state
	// survives — but is reported distinctly via StageRun.Aborted.
	var quota func() error
	if cfg.MemoryBudget > 0 || cfg.MaxGroups > 0 {
		quota = func() error {
			if mem.Exhausted(cfg.MemoryBudget) {
				return fmt.Errorf("memory budget %d bytes exhausted (current %d): %w",
					cfg.MemoryBudget, mem.Current(), search.ErrBudget)
			}
			if cfg.MaxGroups > 0 && m.NumGroups() >= cfg.MaxGroups {
				return fmt.Errorf("memo group limit %d reached (groups %d): %w",
					cfg.MaxGroups, m.NumGroups(), search.ErrBudget)
			}
			return nil
		}
	}

	res := &Result{
		Cost:      memo.InfCost,
		Memo:      m,
		RootGroup: root,
		RootReq:   req,
	}
	var errs []error
	var prevFired int64
	for _, stage := range cfg.effectiveStages() {
		st := stage
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, fmt.Errorf("stage %s: %w", st.Name, cerr))
			break
		}
		xctx.SetRuleSet(rules, cfg.disabled(&st))
		// The stage ends at the earlier of its own timeout and the request
		// deadline; either drain keeps the best plan so far.
		var deadline time.Time
		if st.Timeout > 0 {
			deadline = time.Now().Add(st.Timeout)
		}
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		bestCost, sstats, err := opt.RunStage(root, req, search.StageParams{
			Deadline:  deadline,
			StepLimit: st.StepLimit,
			Quota:     quota,
		})
		fired := opt.RulesFired
		run := StageRun{
			Name:       st.Name,
			Cost:       bestCost,
			TimedOut:   errors.Is(err, search.ErrTimeout),
			Aborted:    errors.Is(err, search.ErrBudget),
			RulesFired: fired - prevFired,
			Search:     sstats,
		}
		prevFired = fired
		res.Search.Merge(sstats)
		res.StageRuns = append(res.StageRuns, run)
		drained := run.TimedOut || run.Aborted
		if err != nil && !drained {
			errs = append(errs, fmt.Errorf("stage %s: %w", st.Name, err))
			continue
		}
		// The root context only ever improves (Offer keeps the minimum), so a
		// strictly better cost means this stage found a better plan — extract
		// it. A drained stage extracts its best-so-far plan the same way.
		if bestCost < res.Cost {
			if xerr := fault.Inject(fault.PointCoreExtract); xerr != nil {
				errs = append(errs, fmt.Errorf("stage %s: %w", st.Name, xerr))
				continue
			}
			plan, err := m.ExtractPlan(root, req)
			if err != nil {
				errs = append(errs, fmt.Errorf("stage %s: %w", st.Name, err))
				continue
			}
			res.Plan = plan
			res.Cost = bestCost
			res.Stage = st.Name
		} else if drained && res.Plan == nil {
			errs = append(errs, fmt.Errorf("stage %s: %w", st.Name, err))
		}
		if res.Plan != nil && st.CostThreshold > 0 && res.Cost <= st.CostThreshold {
			break
		}
		if run.Aborted {
			// Resource guards are persistent (memory stays charged, groups stay
			// inserted), so later stages would abort immediately — stop here.
			break
		}
	}
	if res.Plan == nil {
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		return nil, gpos.Raise(gpos.CompOptimizer, "NoPlan", "no optimization stage produced a plan")
	}
	res.Groups = m.NumGroups()
	res.GroupExprs = m.NumExprs()
	res.RulesFired = opt.RulesFired
	res.Duration = time.Since(start)
	res.PeakMemBytes = mem.Peak()
	return res, nil
}

// Explain renders a physical plan with resolved column names, one operator
// per line with delivered properties, estimated rows and cost.
func Explain(plan *ops.Expr, f *md.ColumnFactory) string {
	var b strings.Builder
	explainNode(&b, plan, f, 0)
	return b.String()
}

// explainNode writes one plan node and its subtree into b, formatting
// numbers in place rather than through fmt, so that a plan's text costs
// few allocations beyond the operators' own descriptions.
func explainNode(b *strings.Builder, e *ops.Expr, f *md.ColumnFactory, depth int) {
	indent(b, depth)
	desc := ops.Describe(e.Op)
	if f != nil {
		writeColNames(b, desc, f)
	} else {
		b.WriteString(desc)
	}
	if e.Phys != nil {
		var num [32]byte
		b.WriteString("   [rows=")
		b.Write(strconv.AppendFloat(num[:0], e.Rows, 'f', 0, 64))
		b.WriteString(" cost=")
		b.Write(strconv.AppendFloat(num[:0], e.Cost, 'f', 0, 64))
		b.WriteString(" dist=")
		b.WriteString(e.Phys.Dist.String())
		if !e.Phys.Order.IsAny() {
			b.WriteString(" order=")
			b.WriteString(e.Phys.Order.String())
		}
		b.WriteString("]")
	}
	b.WriteByte('\n')
	for _, c := range e.Children {
		explainNode(b, c, f, depth+1)
	}
	// SubPlans (legacy Planner) carry their inner plan out-of-line.
	switch op := e.Op.(type) {
	case *ops.SubPlanFilter:
		indent(b, depth+1)
		b.WriteString("SubPlan:\n")
		explainNode(b, op.Plan, f, depth+2)
	case *ops.SubPlanProject:
		indent(b, depth+1)
		b.WriteString("SubPlan:\n")
		explainNode(b, op.Plan, f, depth+2)
	default:
		// Only the SubPlan operators carry an out-of-line inner plan.
	}
}

// indent writes two spaces per level of depth.
func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// writeColNames writes s into b with its c<id> tokens rewritten into column
// names.
func writeColNames(b *strings.Builder, s string, f *md.ColumnFactory) {
	for i := 0; i < len(s); {
		if s[i] == 'c' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' &&
			(i == 0 || !isWordChar(s[i-1])) {
			j := i + 1
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			if j >= len(s) || !isWordChar(s[j]) {
				id := 0
				for _, ch := range s[i+1 : j] {
					id = id*10 + int(ch-'0')
				}
				b.WriteString(f.Name(base.ColID(id)))
				i = j
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
}

func isWordChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
