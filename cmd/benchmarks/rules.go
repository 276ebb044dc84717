package main

// The rules experiment is a rule ablation over the 32 TPC-DS queries and a
// 5–8-relation join chain. Each exploration rule (defs/rules.opt) is
// disabled alone, then both reassociation rules together, then three
// capability sets the paper's design leans on: cost-based join ordering
// (both n-ary expansions and both reassociation rules, leaving the literal
// left-deep join tree of §7.3.2), MPP two-stage aggregation and index scans.
// Every row is a rule's (or capability's) rent: what the search costs
// without it (allocations, rule firings, Memo size) and what the plans lose
// (queries whose plan cost moves, executed work units). Regenerate
// BENCH_rules.json:
//
//	go run ./cmd/benchmarks -experiment=rules -scale=1 -json

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"

	"orca/internal/core"
	"orca/internal/engine"
	"orca/internal/experiments"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/sql"
	"orca/internal/tpcds"
	"orca/internal/xform"
)

// ruleJoinChain is a TPC-DS join tree growing outward from store_sales: a
// star of dimension lookups, then the customer → address/demographics
// snowflake. Each step names the earlier relation its predicate links to.
var ruleJoinChain = []struct {
	table, alias string
	to           int
	pred         string
}{
	{"store_sales", "ss", 0, ""},
	{"date_dim", "d1", 0, "d1.d_date_sk = ss.ss_sold_date_sk"},
	{"item", "i", 0, "i.i_item_sk = ss.ss_item_sk"},
	{"store", "s", 0, "s.s_store_sk = ss.ss_store_sk"},
	{"promotion", "p", 0, "p.p_promo_sk = ss.ss_promo_sk"},
	{"customer", "c", 0, "c.c_customer_sk = ss.ss_customer_sk"},
	{"customer_address", "ca", 5, "ca.ca_address_sk = c.c_current_addr_sk"},
	{"customer_demographics", "cd", 5, "cd.cd_demo_sk = c.c_current_cdemo_sk"},
}

// ruleChainSQL renders the first n steps of the chain as a query.
func ruleChainSQL(n int) string {
	from, where := []string{"store_sales ss"}, []string(nil)
	for _, s := range ruleJoinChain[1:n] {
		from, where = append(from, s.table+" "+s.alias), append(where, s.pred)
	}
	return "SELECT ss.ss_item_sk FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// connectedSets counts the connected subsets of size >= 2 of the chain's
// first n relations: the join groups a duplicate-free Memo would hold.
func connectedSets(n int) (count int) {
	for s := uint(1); s < 1<<n; s++ {
		// The chain is a tree listed parent-first, so s is connected iff all
		// but its lowest member have their parent in s.
		ok := bits.OnesCount(s) >= 2
		for i := bits.TrailingZeros(s) + 1; i < n && ok; i++ {
			ok = s&(1<<i) == 0 || s&(1<<ruleJoinChain[i].to) != 0
		}
		if ok {
			count++
		}
	}
	return count
}

// joinGroups counts the Memo groups holding a logical inner join.
func joinGroups(m *memo.Memo) (count int) {
	for id := 0; id < m.NumGroups(); id++ {
		for _, x := range m.Group(memo.GroupID(id)).Exprs() {
			if j, ok := x.Op.(*ops.Join); ok && j.Type == ops.InnerJoin {
				count++
				break
			}
		}
	}
	return count
}

// ruleBenchRow is one (suite, disabled rules) measurement in BENCH_rules.json.
type ruleBenchRow struct {
	Suite         string   `json:"suite"`    // "tpcds" (sums over the 32 queries) or "chain-<n>"
	Disabled      string   `json:"disabled"` // "" is the full rule set
	AllocsPerPass uint64   `json:"allocs_per_pass"`
	RulesFired    int64    `json:"rules_fired"`
	Groups        int      `json:"groups"`
	GroupExprs    int      `json:"group_exprs"`
	Cost          float64  `json:"cost"`
	CostDiffers   []string `json:"cost_differs,omitempty"` // "query:delta" where plan cost is not the full set's
	WorkUnits     int64    `json:"work_units,omitempty"`   // Σ executed, tpcds only
	ConnectedSets int      `json:"connected_sets,omitempty"`
	JoinGroups    int      `json:"join_groups,omitempty"`
	Bounded       bool     `json:"bounded,omitempty"` // the explore stage hit its step limit
}

type ruleBenchReport struct {
	Segments  int            `json:"segments"`
	Scale     int            `json:"scale"`
	StepLimit int64          `json:"step_limit"`
	Note      string         `json:"note"`
	Rows      []ruleBenchRow `json:"rows"`
}

func rulesExp(env *experiments.Env, jsonOut bool) error {
	header("Rule ablation: each exploration rule and three capability sets disabled, TPC-DS + join chain")
	// Exhaustive reassociation is combinatorial past ~6 relations, so chain
	// rows run the paper's multi-stage mechanism: a seed stage without
	// reassociation costs the n-ary expansions' trees, then an exploration
	// stage searches under a deterministic step limit, best plan so far kept.
	const stepLimit = 400_000
	reassociation := []string{"JoinCommutativity", "JoinAssociativity"}
	chainStages := []core.Stage{{Name: "seed", DisabledRules: reassociation}, {Name: "explore", StepLimit: stepLimit}}
	variants := [][]string{nil}
	for _, r := range xform.DefaultRules() {
		if r.Kind() == xform.Exploration {
			variants = append(variants, []string{r.Name()})
		}
	}
	variants = append(variants, reassociation,
		[]string{"ExpandNAryJoinDP", "ExpandNAryJoinGreedy", "JoinCommutativity", "JoinAssociativity"},
		[]string{"GbAgg2TwoStageAgg"},
		[]string{"Select2IndexScan"})
	report := ruleBenchReport{Segments: env.Cfg.Segments, Scale: env.Cfg.Scale, StepLimit: stepLimit,
		Note: "One row per suite and disabled rule set (\"\" = full set): each exploration rule alone, both reassociation " +
			"rules, then join ordering (the literal left-deep tree), two-stage aggregation and index scans. " +
			"tpcds rows sum the 32 workload queries, " +
			"optimized unbounded and executed on the loaded cluster; chain-<n> rows optimize the first n relations of a " +
			"store_sales snowflake under a seed stage plus a step-limited explore stage (nothing executed) and set the " +
			"Memo's join groups beside the join graph's connected sets. allocs_per_pass counts bind+optimize mallocs."}
	fmt.Printf("%-8s %-36s %9s %7s %6s %7s %10s %9s  %s\n", "suite", "disabled", "allocs", "rules",
		"groups", "gexprs", "cost", "work", "connected sets/join groups, bounded, cost differs")
	for _, n := range []int{0, 5, 6, 7, 8} { // 0 is the TPC-DS workload, the rest chain lengths
		suite, queries := "tpcds", tpcds.Workload()
		if n > 0 {
			suite = fmt.Sprintf("chain-%d", n)
			queries = []tpcds.Query{{Name: suite, SQL: ruleChainSQL(n)}}
		}
		fullCost := map[string]float64{}
		for _, disabled := range variants {
			row := ruleBenchRow{Suite: suite, Disabled: strings.Join(disabled, "+")}
			cfg := core.DefaultConfig(env.Cfg.Segments)
			cfg.DisabledRules, cfg.DisableDegradation = disabled, true
			if n > 0 {
				cfg.Stages, row.ConnectedSets = chainStages, connectedSets(n)
			}
			for _, wq := range queries {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				q, err := sql.Bind(wq.SQL, md.NewAccessor(env.Cache, env.Provider), md.NewColumnFactory())
				if err != nil {
					return err
				}
				res, err := core.Optimize(q, cfg)
				if err != nil {
					return fmt.Errorf("%s without %q: %w", wq.Name, row.Disabled, err)
				}
				runtime.ReadMemStats(&after)
				row.AllocsPerPass += after.Mallocs - before.Mallocs
				row.RulesFired += res.RulesFired
				row.Groups += res.Groups
				row.GroupExprs += res.GroupExprs
				row.Cost += res.Cost
				if disabled == nil {
					fullCost[wq.Name] = res.Cost
				} else if res.Cost != fullCost[wq.Name] {
					row.CostDiffers = append(row.CostDiffers, fmt.Sprintf("%s:%+.1f", wq.Name, res.Cost-fullCost[wq.Name]))
				}
				row.Bounded = row.Bounded || res.StageRuns[len(res.StageRuns)-1].TimedOut
				if n > 0 {
					row.JoinGroups = joinGroups(res.Memo)
					continue
				}
				out, err := env.Cluster.Execute(res.Plan, engine.Options{Budget: env.Cfg.Budget})
				if err != nil {
					return fmt.Errorf("executing %s without %q: %w", wq.Name, row.Disabled, err)
				}
				row.WorkUnits += out.Stats.Work(3)
			}
			report.Rows = append(report.Rows, row)
			fmt.Printf("%-8s %-36s %9d %7d %6d %7d %10.1f %9d  %d/%d %v %v\n", row.Suite, row.Disabled, row.AllocsPerPass, row.RulesFired,
				row.Groups, row.GroupExprs, row.Cost, row.WorkUnits, row.ConnectedSets, row.JoinGroups, row.Bounded, row.CostDiffers)
		}
	}
	return writeArtifact(jsonOut, "BENCH_rules.json", report)
}
