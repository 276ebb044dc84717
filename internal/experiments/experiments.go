// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate: Figure 12 (Orca vs the legacy
// Planner over TPC-DS), the §7.2.2 optimization-time/memory measurements,
// Figures 13 and 14 (HAWQ vs the Impala and Stinger simulations), Figure 15
// (TPC-DS support counts) and the §6.2 TAQO cost-model accuracy measurement.
// cmd/benchmarks, the one driver of the paper's evaluation, prints them.
package experiments

import (
	"fmt"
	"math"
	"time"

	"orca/internal/core"
	"orca/internal/datagen"
	"orca/internal/engine"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/planner"
	"orca/internal/rival"
	"orca/internal/sql"
	"orca/internal/taqo"
	"orca/internal/tpcds"
)

// Config sizes the simulated testbed. The defaults mirror the paper's
// proportions at laptop scale: 16 segments for the MPP comparison (§7.2.1's
// 16-node cluster), 8 for the Hadoop comparison (§7.3.1's 8 worker nodes).
type Config struct {
	Segments int
	Scale    int
	Seed     uint64
	// Budget is the per-query execution cap in work units — the stand-in
	// for the paper's 10000 s timeout. Plans that blow it report the budget
	// as their cost, capping speed-ups exactly like the paper's 1000x bars.
	Budget int64
}

// DefaultConfig returns the standard experiment testbed.
func DefaultConfig() Config {
	return Config{Segments: 16, Scale: 2, Seed: 20140622, Budget: 8_000_000}
}

// Env is a loaded testbed: catalog, generated data, shared metadata cache.
type Env struct {
	Cfg      Config
	Provider *md.MemProvider
	Cluster  *engine.Cluster
	Cache    *md.Cache
	Mem      *gpos.MemoryAccountant
}

// NewEnv builds the catalog and loads generated data.
func NewEnv(cfg Config) (*Env, error) {
	mem := &gpos.MemoryAccountant{}
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: cfg.Scale})
	cluster := engine.NewCluster(cfg.Segments, p)
	if err := datagen.LoadAll(cluster, p, cfg.Seed); err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, Provider: p, Cluster: cluster, Cache: md.NewCache(mem), Mem: mem}, nil
}

// bind parses and binds one workload query.
func (e *Env) bind(sqlText string) (*core.Query, error) {
	return sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
}

// OptimizeOrca runs Orca on a workload query.
func (e *Env) OptimizeOrca(sqlText string) (*core.Result, *core.Query, error) {
	q, err := e.bind(sqlText)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Optimize(q, core.DefaultConfig(e.Cfg.Segments))
	if err != nil {
		return nil, nil, err
	}
	return res, q, nil
}

// ---------------------------------------------------------------------------
// Figure 12: Orca vs Planner speed-up per query

// Fig12Row is one bar of Figure 12.
type Fig12Row struct {
	Query           string
	OrcaWork        int64
	PlannerWork     int64
	Speedup         float64
	PlannerTimedOut bool
}

// Figure12 plans and executes the workload with both optimizers.
func (e *Env) Figure12() ([]Fig12Row, error) {
	opts := engine.Options{Budget: e.Cfg.Budget}
	var rows []Fig12Row
	for _, wq := range tpcds.Workload() {
		res, _, err := e.OptimizeOrca(wq.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: orca: %w", wq.Name, err)
		}
		orcaOut, err := e.Cluster.Execute(res.Plan, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: orca exec: %w", wq.Name, err)
		}
		orcaWork := orcaOut.Stats.Work(3)
		if orcaOut.TimedOut {
			orcaWork = e.Cfg.Budget
		}

		q2, err := e.bind(wq.SQL)
		if err != nil {
			return nil, err
		}
		pl := planner.New(e.Cfg.Segments, q2.Accessor, q2.Factory)
		plan, err := pl.Optimize(q2)
		if err != nil {
			return nil, fmt.Errorf("%s: planner: %w", wq.Name, err)
		}
		legacyOut, err := e.Cluster.Execute(plan, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: planner exec: %w", wq.Name, err)
		}
		plannerWork := legacyOut.Stats.Work(3)
		if legacyOut.TimedOut {
			plannerWork = e.Cfg.Budget
		}

		rows = append(rows, Fig12Row{
			Query:           wq.Name,
			OrcaWork:        orcaWork,
			PlannerWork:     plannerWork,
			Speedup:         float64(plannerWork) / float64(max64(orcaWork, 1)),
			PlannerTimedOut: legacyOut.TimedOut,
		})
	}
	return rows, nil
}

// Fig12Summary aggregates Figure 12 the way the paper reports it.
type Fig12Summary struct {
	Queries          int
	SuiteSpeedup     float64 // total planner work / total orca work
	SameOrBetterFrac float64 // fraction with speed-up ≥ ~1 (paper: 80%)
	TimeoutCapped    int     // queries where the planner hit the cap
	MaxSpeedup       float64
	WorstSlowdown    float64 // smallest speed-up
	GeoMeanSpeedup   float64
}

// Summarize computes the headline numbers.
func Summarize(rows []Fig12Row) Fig12Summary {
	s := Fig12Summary{Queries: len(rows), WorstSlowdown: 1e18}
	var orcaTotal, plannerTotal int64
	sameOrBetter := 0
	logSum := 0.0
	for _, r := range rows {
		orcaTotal += r.OrcaWork
		plannerTotal += r.PlannerWork
		if r.Speedup >= 0.95 {
			sameOrBetter++
		}
		if r.PlannerTimedOut {
			s.TimeoutCapped++
		}
		if r.Speedup > s.MaxSpeedup {
			s.MaxSpeedup = r.Speedup
		}
		if r.Speedup < s.WorstSlowdown {
			s.WorstSlowdown = r.Speedup
		}
		logSum += logf(r.Speedup)
	}
	if len(rows) > 0 {
		s.SuiteSpeedup = float64(plannerTotal) / float64(max64(orcaTotal, 1))
		s.SameOrBetterFrac = float64(sameOrBetter) / float64(len(rows))
		s.GeoMeanSpeedup = expf(logSum / float64(len(rows)))
	}
	return s
}

// ---------------------------------------------------------------------------
// §7.2.2: optimization time and memory footprint

// OptStatsRow reports per-query optimizer effort.
type OptStatsRow struct {
	Query      string
	OptTime    time.Duration
	Groups     int
	GroupExprs int
	RulesFired int64
	PeakMem    int64
}

// OptimizationStats measures Orca itself across the workload.
func (e *Env) OptimizationStats() ([]OptStatsRow, error) {
	var out []OptStatsRow
	for _, wq := range tpcds.Workload() {
		res, _, err := e.OptimizeOrca(wq.SQL)
		if err != nil {
			return nil, err
		}
		out = append(out, OptStatsRow{
			Query:      wq.Name,
			OptTime:    res.Duration,
			Groups:     res.Groups,
			GroupExprs: res.GroupExprs,
			RulesFired: res.RulesFired,
			PeakMem:    res.PeakMemBytes,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 13/14: HAWQ vs rival engines

// RivalRow is one bar of Figure 13 or 14.
type RivalRow struct {
	Query         string
	HAWQWork      int64
	RivalWork     int64
	Speedup       float64
	RivalOOM      bool
	RivalTimedOut bool
}

// FigureRival compares Orca(HAWQ) with a rival profile on the subset of the
// workload the rival can optimize.
func (e *Env) FigureRival(p *rival.Profile) ([]RivalRow, error) {
	features := templateFeatures()
	opts := engine.Options{Budget: e.Cfg.Budget}
	var rows []RivalRow
	for _, wq := range tpcds.Workload() {
		if !p.CanOptimize(features[wq.TemplateID] &^ tpcds.FImplicitCross) {
			// The paper rewrote implicit cross joins away; other feature
			// gaps exclude the query from the comparison entirely.
			continue
		}
		res, _, err := e.OptimizeOrca(wq.SQL)
		if err != nil {
			return nil, err
		}
		hawqOut, err := e.Cluster.Execute(res.Plan, opts)
		if err != nil {
			return nil, err
		}
		hawqWork := hawqOut.Stats.Work(3)

		q2, err := e.bind(wq.SQL)
		if err != nil {
			return nil, err
		}
		plan, err := p.Plan(q2, e.Cfg.Segments)
		if err != nil {
			return nil, fmt.Errorf("%s: %s plan: %w", wq.Name, p.Name, err)
		}
		rivalOut, err := e.Cluster.Execute(plan, p.ExecOptions(e.Cfg.Budget))
		row := RivalRow{Query: wq.Name, HAWQWork: hawqWork}
		switch {
		case err == engine.ErrOOM:
			row.RivalOOM = true
			row.RivalWork = e.Cfg.Budget
		case err != nil:
			return nil, fmt.Errorf("%s: %s exec: %w", wq.Name, p.Name, err)
		case rivalOut.TimedOut:
			row.RivalTimedOut = true
			row.RivalWork = e.Cfg.Budget
		default:
			row.RivalWork = rivalOut.Stats.Work(3)
		}
		row.Speedup = float64(row.RivalWork) / float64(max64(hawqWork, 1))
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 15: TPC-DS support counts

// SupportRow is one system's bar pair in Figure 15.
type SupportRow struct {
	System   string
	Optimize int
	Execute  int
}

// Figure15 computes optimization and execution support counts over the
// 111-query expansion of the 99 templates. Optimization support intersects
// each template's feature tags with the profile's gates; execution support
// additionally applies the profile's memory model, measured on the
// executable workload subset and extrapolated to the rest (see
// EXPERIMENTS.md for the methodology note).
func (e *Env) Figure15() ([]SupportRow, error) {
	profiles := []*rival.Profile{rival.HAWQ(), rival.Impala(), rival.Presto(), rival.Stinger()}
	var out []SupportRow
	for _, p := range profiles {
		optimize := 0
		for _, tpl := range tpcds.Templates() {
			if p.CanOptimize(tpl.Features &^ tpcds.FImplicitCross) {
				optimize += tpl.Instances
			}
		}
		execute := optimize
		if p.MemLimitRows > 0 || p.PipelineMemRows > 0 {
			frac, err := e.execSuccessFraction(p)
			if err != nil {
				return nil, err
			}
			execute = int(float64(optimize)*frac + 0.5)
		}
		out = append(out, SupportRow{System: p.Name, Optimize: optimize, Execute: execute})
	}
	return out, nil
}

// execSuccessFraction measures, on the executable workload queries the
// profile can optimize, the fraction that complete under its memory model.
func (e *Env) execSuccessFraction(p *rival.Profile) (float64, error) {
	features := templateFeatures()
	total, ok := 0, 0
	for _, wq := range tpcds.Workload() {
		if !p.CanOptimize(features[wq.TemplateID] &^ tpcds.FImplicitCross) {
			continue
		}
		total++
		q, err := e.bind(wq.SQL)
		if err != nil {
			return 0, err
		}
		plan, err := p.Plan(q, e.Cfg.Segments)
		if err != nil {
			continue // planning failure counts as unexecuted
		}
		out, err := e.Cluster.Execute(plan, p.ExecOptions(e.Cfg.Budget))
		if err == engine.ErrOOM {
			continue
		}
		if err != nil {
			return 0, err
		}
		if !out.TimedOut {
			ok++
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(ok) / float64(total), nil
}

// ---------------------------------------------------------------------------
// TAQO (§6.2)

// TaqoRow reports cost-model accuracy for one query.
type TaqoRow struct {
	Query       string
	Correlation float64
	Sampled     int
	SpaceSize   float64
}

// TAQO scores the cost model on a subset of the workload.
func (e *Env) TAQO(queryNames []string, samples int) ([]TaqoRow, error) {
	want := map[string]bool{}
	for _, n := range queryNames {
		want[n] = true
	}
	var out []TaqoRow
	for _, wq := range tpcds.Workload() {
		if len(want) > 0 && !want[wq.Name] {
			continue
		}
		res, _, err := e.OptimizeOrca(wq.SQL)
		if err != nil {
			return nil, err
		}
		score, err := taqo.Evaluate(res.Memo, res.RootGroup, res.RootReq, e.Cluster, taqo.Options{
			Samples: samples,
			Budget:  e.Cfg.Budget,
			Seed:    e.Cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: taqo: %w", wq.Name, err)
		}
		out = append(out, TaqoRow{
			Query:       wq.Name,
			Correlation: score.Correlation,
			Sampled:     score.Sampled,
			SpaceSize:   score.SpaceSize,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------

func templateFeatures() map[int]tpcds.Feature {
	out := map[int]tpcds.Feature{}
	for _, t := range tpcds.Templates() {
		out[t.ID] = t.Features
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func logf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log(v)
}

func expf(v float64) float64 { return math.Exp(v) }
