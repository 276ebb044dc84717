package orca

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"orca/internal/core"
	"orca/internal/cost"
	"orca/internal/dxl"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/plancache"
	"orca/internal/serve"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// The allocation ledger: exact heap-allocation counts of the optimizer's
// hot paths, checked in as BENCH_allocs.json, measured on the scale-1
// testbed. A row sums its parts (one per document,
// plan or request); a part's count is the minimum of five
// runtime.MemStats.Mallocs deltas, each taken with the garbage collector
// off, after one warm-up run.
//
// The file lists each row as "exact", to match to the allocation, or as
// "request", to differ by at most request_tolerance: a whole search
// allocates a few runtime objects of its own (map-table splits that depend
// on each map's hash seed; a served request also starts goroutines),
// varying from run to run while every search step stays the same. Taking
// each part's minimum absorbs the runtime's type-assertion caches, which
// grow on a random ~1 in 1,024 misses.
//
// A request row also pins the bytes its parts allocate
// (runtime.MemStats.TotalAlloc, measured like the count) in request_bytes,
// to within request_bytes_tolerance (a fraction): the collector's work
// follows bytes, and a change can move bytes without moving the count.
//
// A change that moves a count on purpose updates the file by hand, in the
// same change, as BENCH_plans.json is updated.

const allocLedgerFile = "BENCH_allocs.json"

type allocLedger struct {
	RequestTolerance      uint64            `json:"request_tolerance"`
	RequestBytesTolerance float64           `json:"request_bytes_tolerance"`
	Exact                 map[string]uint64 `json:"exact"`
	Request               map[string]uint64 `json:"request"`
	RequestBytes          map[string]uint64 `json:"request_bytes"`
}

// allocRow is one measured ledger row. Every run calls setup, outside the
// measured windows, then measures each part in turn.
type allocRow struct {
	setup func(t testing.TB)
	parts []func(t testing.TB)
}

// countAllocs returns the row's count and bytes: each the sum over its
// parts of the part's minimum over five measured runs, after one warm-up
// run.
func countAllocs(t testing.TB, r allocRow) (count, bytes uint64) {
	best := make([]uint64, len(r.parts))
	bestBytes := make([]uint64, len(r.parts))
	for j := range best {
		best[j], bestBytes[j] = math.MaxUint64, math.MaxUint64
	}
	for i := 0; i < 6; i++ {
		if r.setup != nil {
			r.setup(t)
		}
		for j, part := range r.parts {
			// With the collector off, no cycle starts inside the window to
			// add the runtime's own allocations to it.
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			part(t)
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			if i > 0 {
				best[j] = min(best[j], after.Mallocs-before.Mallocs)
				bestBytes[j] = min(bestBytes[j], after.TotalAlloc-before.TotalAlloc)
			}
		}
	}
	for j := range best {
		count += best[j]
		bytes += bestBytes[j]
	}
	return count, bytes
}

// each makes one part per element of xs.
func each[T any](xs []T, part func(t testing.TB, x T)) []func(testing.TB) {
	parts := make([]func(testing.TB), len(xs))
	for i, x := range xs {
		parts[i] = func(t testing.TB) { part(t, x) }
	}
	return parts
}

// single makes a one-part row.
func single(part func(t testing.TB)) []func(testing.TB) { return []func(testing.TB){part} }

func TestAllocLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the TPC-DS workload")
	}
	if raceBuild() {
		t.Skip("-race changes allocation counts: its sync.Pool drops items at random")
	}
	raw, err := os.ReadFile(allocLedgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var want allocLedger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", allocLedgerFile, err)
	}
	var diffs []string
	for _, r := range ledgerRows(&ledgerInputs{}) {
		t.Run(r.name, func(t *testing.T) {
			got, gotBytes := countAllocs(t, r.build(t))
			t.Logf("%d allocs, %d bytes", got, gotBytes)
			if w, ok := want.RequestBytes[r.name]; ok &&
				math.Abs(float64(gotBytes)-float64(w)) > want.RequestBytesTolerance*float64(w) {
				diffs = append(diffs, r.name+" bytes "+itoa(w)+" "+itoa(gotBytes))
			}
			w, exact := want.Exact[r.name]
			tolerance := uint64(0)
			if !exact {
				var ok bool
				if w, ok = want.Request[r.name]; !ok {
					diffs = append(diffs, r.name+" - "+itoa(got))
					return
				}
				tolerance = want.RequestTolerance
			}
			if got > w+tolerance || got+tolerance < w {
				diffs = append(diffs, r.name+" "+itoa(w)+" "+itoa(got))
			}
		})
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Errorf("allocation counts differ from %s (request rows may move by %d, their bytes by %g%%):\n"+
			"row want got\n%s\nfind the new allocation with -memprofile, or update %s in the change that moves it on purpose",
			allocLedgerFile, want.RequestTolerance, 100*want.RequestBytesTolerance, strings.Join(diffs, "\n"), allocLedgerFile)
	}
}

func itoa(n uint64) string { return strconv.FormatUint(n, 10) }

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// ledgerRow names a row and builds it inside the row's own subtest, so
// running one row builds only the inputs it reads.
type ledgerRow struct {
	name  string
	build func(testing.TB) allocRow
}

func ledgerRows(l *ledgerInputs) []ledgerRow {
	return []ledgerRow{
		{"memo_insert_q3", func(t testing.TB) allocRow {
			var m *memo.Memo
			tree := normalizedTree(t, "q3")
			return allocRow{
				setup: func(testing.TB) { m = memo.New(&gpos.OwnedAccountant{}) },
				parts: single(func(t testing.TB) { insert(t, m, tree) }),
			}
		}},
		{"memo_insert_expr", func(t testing.TB) allocRow {
			// q3's first multi-input expression, children reversed, into
			// its own group, as the join-order rules insert.
			var m *memo.Memo
			tree := normalizedTree(t, "q3")
			join := firstJoin(t, tree)
			var reversed []memo.GroupID
			for i := len(join.Children) - 1; i >= 0; i-- {
				reversed = append(reversed, join.Children[i])
			}
			return allocRow{
				setup: func(t testing.TB) { m = memo.New(&gpos.OwnedAccountant{}); insert(t, m, tree) },
				parts: single(func(t testing.TB) {
					if _, err := m.InsertExpr(join.Op, reversed, join.Group().ID); err != nil {
						t.Fatal(err)
					}
				}),
			}
		}},
		{"cost_local_cost_plans", func(t testing.TB) allocRow {
			// Every operator of the 32 plans, with the inputs the search
			// passes.
			model := cost.NewModel(cost.DefaultParams(env(t).Cfg.Segments))
			in := cost.Inputs{OutRows: 1000, ChildRows: []float64{100, 10}, Skew: 1}
			var planOps []ops.Operator
			for _, p := range l.queryPlans(t) {
				planOps = appendOps(planOps, p)
			}
			return allocRow{parts: single(func(testing.TB) {
				for _, op := range planOps {
					model.LocalCost(op, in)
				}
			})}
		}},
		{"dxl_parse_xml_queries", func(t testing.TB) allocRow {
			return allocRow{parts: each(l.queryDocs(t), func(t testing.TB, doc string) { parseXML(t, doc) })}
		}},
		{"dxl_render_queries", func(t testing.TB) allocRow {
			var nodes []*dxl.Node
			for _, doc := range l.queryDocs(t) {
				nodes = append(nodes, parseXML(t, doc))
			}
			return allocRow{parts: each(nodes, func(_ testing.TB, n *dxl.Node) { n.Render() })}
		}},
		{"dxl_serialize_plans", func(t testing.TB) allocRow {
			return allocRow{parts: each(l.queryPlans(t), func(_ testing.TB, p *ops.Expr) { dxl.SerializePlan(p) })}
		}},
		{"core_optimize_q6", func(t testing.TB) allocRow { return optimizeRow(t, "q6") }},
		{"core_optimize_q25", func(t testing.TB) allocRow { return optimizeRow(t, "q25") }},
		{"core_optimize_tpcds", func(t testing.TB) allocRow {
			var names []string
			for _, wq := range tpcds.Workload() {
				names = append(names, wq.Name)
			}
			return optimizeRow(t, names...)
		}},
		{"serve_sql_hit_shapes", func(t testing.TB) allocRow {
			h := l.hitShapes(t)
			return allocRow{parts: postEach(h.warm, "/optimize", h.sql)}
		}},
		{"serve_dxl_hit_shapes", func(t testing.TB) allocRow {
			h := l.hitShapes(t)
			return allocRow{parts: postEach(h.warm, "/optimize/dxl", h.dxl)}
		}},
		{"serve_miss_admit_shapes", func(t testing.TB) allocRow {
			h, cold := l.hitShapes(t), new(http.Handler)
			return allocRow{
				setup: func(t testing.TB) { *cold = newServer(t) },
				parts: postEach(cold, "/optimize", h.sql),
			}
		}},
	}
}

// ledgerInputs builds the rows' shared inputs on first use.
type ledgerInputs struct {
	docs  []string    // DXL documents of the TPC-DS workload queries
	plans []*ops.Expr // their optimized plans
	hits  *hitShapes
}

// hitShapes is a server with every plan-cacheable workload shape admitted,
// and each shape as a SQL and a DXL request body.
type hitShapes struct {
	warm     *http.Handler
	sql, dxl []string
}

func (l *ledgerInputs) queryDocs(t testing.TB) []string {
	if l.docs == nil {
		for _, wq := range tpcds.Workload() {
			l.docs = append(l.docs, dxl.SerializeQuery(bind(t, wq.SQL)).Render())
		}
	}
	return l.docs
}

func (l *ledgerInputs) queryPlans(t testing.TB) []*ops.Expr {
	if l.plans == nil {
		for _, wq := range tpcds.Workload() {
			res, err := core.Optimize(bind(t, wq.SQL), core.DefaultConfig(env(t).Cfg.Segments))
			if err != nil {
				t.Fatalf("%s: %v", wq.Name, err)
			}
			l.plans = append(l.plans, res.Plan)
		}
	}
	return l.plans
}

func (l *ledgerInputs) hitShapes(t testing.TB) *hitShapes {
	if l.hits != nil {
		return l.hits
	}
	docs := l.queryDocs(t)
	h := &hitShapes{warm: new(http.Handler)}
	*h.warm = newServer(t)
	for i, wq := range tpcds.Workload() {
		// Shapes Extract refuses are never admitted; skip their searches.
		q := bind(t, wq.SQL)
		if _, ok := plancache.Extract(q.Tree, q.Order, q.OutCols); !ok {
			continue
		}
		js, err := json.Marshal(map[string]string{"sql": wq.SQL})
		if err != nil {
			t.Fatal(err)
		}
		post(t, *h.warm, "/optimize", string(js))
		if post(t, *h.warm, "/optimize/dxl", docs[i]) != "hit" {
			continue
		}
		h.sql = append(h.sql, string(js))
		h.dxl = append(h.dxl, docs[i])
	}
	t.Logf("%d plan-cacheable shapes", len(h.sql))
	l.hits = h
	return h
}

func bind(t testing.TB, sqlText string) *core.Query {
	e := env(t)
	q, err := sql.Bind(sqlText, md.NewAccessor(e.Cache, e.Provider), md.NewColumnFactory())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func workloadSQL(t testing.TB, name string) string {
	for _, wq := range tpcds.Workload() {
		if wq.Name == name {
			return wq.SQL
		}
	}
	t.Fatalf("no workload query %s", name)
	return ""
}

// normalizedTree is the named query's tree as core.Optimize inserts it.
func normalizedTree(t testing.TB, name string) *ops.Expr {
	q := bind(t, workloadSQL(t, name))
	tree, err := core.Normalize(q.Tree, q.Factory)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func insert(t testing.TB, m *memo.Memo, tree *ops.Expr) {
	if _, err := m.Insert(tree); err != nil {
		t.Fatal(err)
	}
}

// firstJoin returns the first expression with two or more inputs of tree's
// Memo.
func firstJoin(t testing.TB, tree *ops.Expr) *memo.GroupExpr {
	m := memo.New(&gpos.OwnedAccountant{})
	insert(t, m, tree)
	for id := 0; id < m.NumGroups(); id++ {
		for _, ge := range m.Group(memo.GroupID(id)).Exprs() {
			if len(ge.Children) >= 2 {
				return ge
			}
		}
	}
	t.Fatal("no join")
	return nil
}

func appendOps(dst []ops.Operator, e *ops.Expr) []ops.Operator {
	dst = append(dst, e.Op)
	for _, c := range e.Children {
		dst = appendOps(dst, c)
	}
	return dst
}

func parseXML(t testing.TB, doc string) *dxl.Node {
	n, err := dxl.ParseXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// optimizeRow is one whole core.Optimize per named query, one part each.
func optimizeRow(t testing.TB, names ...string) allocRow {
	cfg := core.DefaultConfig(env(t).Cfg.Segments)
	qs := make([]*core.Query, len(names))
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	return allocRow{
		setup: func(t testing.TB) {
			for i, name := range names {
				qs[i] = bind(t, workloadSQL(t, name))
			}
		},
		parts: each(idx, func(t testing.TB, i int) {
			if _, err := core.Optimize(qs[i], cfg); err != nil {
				t.Fatal(err)
			}
		}),
	}
}

func newServer(t testing.TB) http.Handler {
	e := env(t)
	s, err := serve.New(serve.Config{Base: core.DefaultConfig(e.Cfg.Segments), Provider: e.Provider, Cache: e.Cache})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

// post sends one request in process and returns its X-Orca-Cache header.
func post(t testing.TB, h http.Handler, path, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Header().Get("X-Orca-Cache")
}

// postEach makes one part per request body, posted to *h.
func postEach(h *http.Handler, path string, bodies []string) []func(testing.TB) {
	return each(bodies, func(t testing.TB, b string) { post(t, *h, path, b) })
}
