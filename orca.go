// Package orca is a from-scratch Go reproduction of Orca, the modular query
// optimizer architecture of Soliman et al., SIGMOD 2014: a stand-alone,
// Cascades-style, cost-based optimizer for massively parallel (MPP)
// databases, together with every substrate its evaluation depends on — a
// metadata exchange layer with provider plug-ins and a versioned cache, a
// DXL serialization format, a simulated shared-nothing MPP execution engine,
// a legacy PostgreSQL-lineage "Planner" baseline, simulated Hadoop SQL
// rivals, the AMPERe minimal-repro tool and the TAQO cost-model accuracy
// harness, and a TPC-DS-derived benchmark workload.
//
// The System type bundles a catalog, a simulated cluster and the optimizer
// into the end-to-end surface the examples and benchmarks use:
//
//	sys := orca.NewSystem(16)
//	sys.AddTable(md.TableSpec{Name: "t", ...})
//	sys.MustLoad(42)
//	res, _ := sys.Run("SELECT count(*) FROM t")
//
// Every component is also usable on its own; see DESIGN.md for the module
// map and EXPERIMENTS.md for the reproduced evaluation.
package orca

import (
	"context"
	"fmt"

	"orca/internal/ampere"
	"orca/internal/core"
	"orca/internal/datagen"
	"orca/internal/engine"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/planner"
	"orca/internal/sql"
)

// System bundles a catalog (metadata provider), the shared metadata cache, a
// simulated MPP cluster and an optimizer configuration.
type System struct {
	Provider *md.MemProvider
	Cache    *md.Cache
	Cluster  *engine.Cluster
	Config   core.Config
	Mem      *gpos.MemoryAccountant

	// DumpDir, when set, enables AMPERe's automatic capture (paper §6.1):
	// an optimization failure writes a minimal self-contained repro dump —
	// query, touched metadata, configuration and the error's stack trace —
	// into this directory.
	DumpDir string
}

// NewSystem creates a system with the given segment count and a default
// single-stage optimizer configuration.
func NewSystem(segments int) *System {
	mem := &gpos.MemoryAccountant{}
	p := md.NewMemProvider()
	return &System{
		Provider: p,
		Cache:    md.NewCache(mem),
		Cluster:  engine.NewCluster(segments, p),
		Config:   core.DefaultConfig(segments),
		Mem:      mem,
	}
}

// AddTable registers a table (schema plus synthetic statistics) in the
// catalog.
func (s *System) AddTable(spec md.TableSpec) *md.Relation {
	return md.Build(s.Provider, spec)
}

// Load generates data for every registered table by reversing its declared
// statistics (datagen) and loads it into the cluster.
func (s *System) Load(seed uint64) error {
	return datagen.LoadAll(s.Cluster, s.Provider, seed)
}

// MustLoad panics on load failure; for examples and tests.
func (s *System) MustLoad(seed uint64) {
	if err := s.Load(seed); err != nil {
		panic(err)
	}
}

// Accessor opens a session-scoped metadata accessor over the shared cache.
func (s *System) Accessor() *md.Accessor {
	return md.NewAccessor(s.Cache, s.Provider)
}

// Bind parses and binds a SQL query into an optimizable form.
func (s *System) Bind(query string) (*core.Query, error) {
	acc := s.Accessor()
	f := md.NewColumnFactory()
	return sql.Bind(query, acc, f)
}

// Optimize binds and optimizes a SQL query, returning the optimization
// result (plan, cost, Memo statistics). When DumpDir is set, a failure
// automatically captures an AMPERe repro dump — both when the degradation
// ladder rescues the session (the dump path lands in Result.DumpPath) and
// when optimization fails outright.
func (s *System) Optimize(query string) (*core.Result, *core.Query, error) {
	q, err := s.Bind(query)
	if err != nil {
		return nil, nil, err
	}
	defer q.Accessor.Close()
	cfg := s.Config
	var dumped string
	var capture func(*core.Query, core.Config, *gpos.Exception) string
	if s.DumpDir != "" {
		capture = ampere.DumpCapture(context.Background(), s.DumpDir, s.Provider)
		if cfg.DumpCapture == nil {
			cfg.DumpCapture = func(fq *core.Query, fcfg core.Config, failure *gpos.Exception) string {
				dumped = capture(fq, fcfg, failure)
				return dumped
			}
		}
	}
	res, err := core.Optimize(q, cfg)
	if err != nil {
		// The ladder already captured a dump through the hook when it
		// engaged; capture here only for failures that bypassed it (e.g.
		// DisableDegradation).
		if dumped == "" && capture != nil {
			dumped = capture(q, s.Config, failureOf(err))
		}
		if dumped != "" {
			return nil, nil, fmt.Errorf("%w (AMPERe dump: %s)", err, dumped)
		}
		return nil, nil, err
	}
	return res, q, nil
}

// failureOf returns err as the exception a dump records, wrapping errors
// raised outside gpos.
func failureOf(err error) *gpos.Exception {
	if ex := gpos.AsException(err); ex != nil {
		return ex
	}
	return gpos.Wrap(err, gpos.CompOptimizer, "OptimizationFailed", "optimization failed")
}

// Explain returns the optimized plan rendered as text.
func (s *System) Explain(query string) (string, error) {
	res, q, err := s.Optimize(query)
	if err != nil {
		return "", err
	}
	return core.Explain(res.Plan, q.Factory), nil
}

// Run optimizes and executes a SQL query on the simulated cluster.
func (s *System) Run(query string) (*engine.Result, error) {
	return s.RunOpts(query, engine.Options{})
}

// RunOpts is Run with execution options (budgets, memory limits).
func (s *System) RunOpts(query string, opts engine.Options) (*engine.Result, error) {
	res, q, err := s.Optimize(query)
	if err != nil {
		return nil, err
	}
	out, err := s.Cluster.Execute(res.Plan, opts)
	if err != nil {
		return nil, err
	}
	return projectOutput(out, q)
}

// OptimizeLegacy plans a SQL query with the legacy Planner baseline (the
// paper's §7.2 comparison system) instead of Orca.
func (s *System) OptimizeLegacy(query string) (*ops.Expr, *core.Query, error) {
	q, err := s.Bind(query)
	if err != nil {
		return nil, nil, err
	}
	pl := planner.New(s.Cluster.Segments, q.Accessor, q.Factory)
	plan, err := pl.Optimize(q)
	if err != nil {
		return nil, nil, err
	}
	return plan, q, nil
}

// RunLegacy optimizes with the legacy Planner and executes on the cluster.
func (s *System) RunLegacy(query string, opts engine.Options) (*engine.Result, error) {
	plan, q, err := s.OptimizeLegacy(query)
	if err != nil {
		return nil, err
	}
	defer q.Accessor.Close()
	out, err := s.Cluster.Execute(plan, opts)
	if err != nil {
		return nil, err
	}
	return projectOutput(out, q)
}

// ExplainLegacy renders the legacy Planner's plan.
func (s *System) ExplainLegacy(query string) (string, error) {
	plan, q, err := s.OptimizeLegacy(query)
	if err != nil {
		return "", err
	}
	defer q.Accessor.Close()
	return core.Explain(plan, q.Factory), nil
}

// projectOutput narrows an execution result to the query's declared output
// columns, in order.
func projectOutput(out *engine.Result, q *core.Query) (*engine.Result, error) {
	if len(q.OutCols) == 0 || out.TimedOut {
		return out, nil
	}
	pos := make([]int, len(q.OutCols))
	idx := make(map[int32]int)
	for i, c := range out.Schema {
		idx[int32(c)] = i
	}
	for i, c := range q.OutCols {
		p, ok := idx[int32(c)]
		if !ok {
			return nil, fmt.Errorf("orca: output column %d missing from plan result", c)
		}
		pos[i] = p
	}
	res := &engine.Result{Schema: q.OutCols, Stats: out.Stats, TimedOut: out.TimedOut}
	for _, r := range out.Rows {
		nr := make(engine.Row, len(pos))
		for i, p := range pos {
			nr[i] = r[p]
		}
		res.Rows = append(res.Rows, nr)
	}
	return res, nil
}
