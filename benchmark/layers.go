package main

// layers.go holds every call the benchmark makes into orca/internal/*, so a
// later API refactor updates this one file. It has three parts: the catalog
// and data the run is set against, the in-process mirror of orcad's request
// path (cmd/orcad → internal/serve), and plan execution with its reference.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/datagen"
	"orca/internal/dxl"
	"orca/internal/engine"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/plancache"
	"orca/internal/planner"
	"orca/internal/props"
	"orca/internal/search"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// The fixed environment: what orcad is started against and what plans run on.
// The expected digests under expected/ are functions of these four values.
const (
	catalogScale = 2        // tpcds.Scale factor (cmd/mdharvest's default)
	segments     = 16       // orcad's -segments default
	dataSeed     = 20140622 // datagen seed (the experiments testbed's)
	execBudget   = 8_000_000
)

// harvestCatalog renders the TPC-DS catalog as the DXL metadata document
// orcad is started with (-metadata).
func harvestCatalog() string {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: catalogScale})
	return dxl.HarvestAll(p).Render()
}

// fixedQueries returns the 32 TPC-DS workload queries as (name, SQL).
func fixedQueries() [][2]string {
	var out [][2]string
	for _, q := range tpcds.Workload() {
		out = append(out, [2]string{q.Name, q.SQL})
	}
	return out
}

// world is the catalog as orcad sees it (parsed back from the DXL document)
// with generated data loaded on a simulated cluster.
type world struct {
	provider *md.MemProvider
	cluster  *engine.Cluster
	mdcache  *md.Cache // for reference and DXL-conversion binds, not the mirror's
}

func loadWorld(catalogDoc string) (*world, error) {
	p, err := dxl.ProviderFromDocument(catalogDoc)
	if err != nil {
		return nil, fmt.Errorf("parsing harvested catalog: %w", err)
	}
	c := engine.NewCluster(segments, p)
	if err := datagen.LoadAll(c, p, dataSeed); err != nil {
		return nil, fmt.Errorf("loading generated data: %w", err)
	}
	return &world{provider: p, cluster: c, mdcache: md.NewCache(&gpos.MemoryAccountant{})}, nil
}

// rowsDigest is a row count and the sha256 of the order-normalised rows.
type rowsDigest struct {
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

func digestLines(lines []string) rowsDigest {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return rowsDigest{Rows: len(lines), SHA256: hex.EncodeToString(h.Sum(nil))}
}

func rowLine(r engine.Row, pos []int) string {
	parts := make([]string, len(pos))
	for j, p := range pos {
		parts[j] = r[p].String()
	}
	return strings.Join(parts, ",")
}

// tableDigests fingerprints the loaded data, so that catalog or datagen drift
// is told apart from a wrong plan.
func (w *world) tableDigests() map[string]rowsDigest {
	out := map[string]rowsDigest{}
	for _, name := range w.cluster.TableNames() {
		t, _ := w.cluster.Table(name)
		rows := t.AllRows()
		lines := make([]string, len(rows))
		var pos []int // every column, in order
		for i, r := range rows {
			for len(pos) < len(r) {
				pos = append(pos, len(pos))
			}
			lines[i] = rowLine(r, pos)
		}
		out[name] = digestLines(lines)
	}
	return out
}

// execResult is one plan execution on the cluster.
type execResult struct {
	digest   rowsDigest
	work     int64
	rowsOut  int
	timedOut bool
	dur      time.Duration
}

func (w *world) execute(plan *ops.Expr, outCols []base.ColID) (execResult, error) {
	t0 := time.Now()
	res, err := w.cluster.Execute(plan, engine.Options{Budget: execBudget})
	dur := time.Since(t0)
	if err != nil {
		return execResult{}, err
	}
	out := execResult{work: res.Stats.Work(3), rowsOut: len(res.Rows), timedOut: res.TimedOut, dur: dur}
	if res.TimedOut {
		return out, nil
	}
	idx := map[base.ColID]int{}
	for i, c := range res.Schema {
		idx[c] = i
	}
	pos := make([]int, len(outCols))
	for i, c := range outCols {
		p, ok := idx[c]
		if !ok {
			return execResult{}, fmt.Errorf("output column %d missing from plan schema", c)
		}
		pos[i] = p
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = rowLine(r, pos)
	}
	out.digest = digestLines(lines)
	return out, nil
}

func (w *world) bind(text string) (*core.Query, error) {
	return sql.Bind(text, md.NewAccessor(w.mdcache, w.provider), md.NewColumnFactory())
}

// plannerReference plans text with the legacy Planner (an optimizer that
// shares no search code with Orca) and executes it. ok is false when the
// Planner's plan blows the execution budget.
func (w *world) plannerReference(text string) (d rowsDigest, ok bool, err error) {
	q, err := w.bind(text)
	if err != nil {
		return d, false, err
	}
	plan, err := planner.New(segments, q.Accessor, q.Factory).Optimize(q)
	if err != nil {
		return d, false, err
	}
	res, err := w.execute(plan, q.OutCols)
	if err != nil {
		return d, false, err
	}
	return res.digest, !res.timedOut, nil
}

// orcaReference is the cache-off Orca plan's rows: the fallback reference for
// the fixed queries on which the Planner times out.
func (w *world) orcaReference(text string) (rowsDigest, error) {
	q, err := w.bind(text)
	if err != nil {
		return rowsDigest{}, err
	}
	r, err := core.Optimize(q, core.DefaultConfig(segments))
	if err != nil {
		return rowsDigest{}, err
	}
	res, err := w.execute(r.Plan, q.OutCols)
	if err != nil {
		return rowsDigest{}, err
	}
	if res.timedOut {
		return rowsDigest{}, fmt.Errorf("orca plan blew the execution budget")
	}
	return res.digest, nil
}

// toDXL renders text's bound query as the document POST /optimize/dxl takes.
func (w *world) toDXL(text string) (string, error) {
	q, err := w.bind(text)
	if err != nil {
		return "", err
	}
	return dxl.SerializeQuery(q).Render(), nil
}

// ---------------------------------------------------------------------------
// The mirror: orcad's request path replayed through the layers' public
// functions. It follows internal/serve (runOptimize, cachedOptimize,
// admitPlan) with admission, deadlines and singleflight left out, which a
// sequential replay never engages. Its plan must equal orcad's byte for byte;
// the verify phase checks that on every request.

type mirror struct {
	provider *md.MemProvider
	mdcache  *md.Cache
	plans    *plancache.Cache
	cfg      core.Config
	tr       *tracer // nil when not tracing
}

// newMirror mirrors an orcad started with default flags and the given plan
// cache budget (0 = -plan-cache-off).
func newMirror(w *world, planCacheBytes int64, tr *tracer) *mirror {
	cfg := core.DefaultConfig(segments)
	cfg.MDLookupTimeout = 2 * time.Second
	cfg.MDRetry = md.RetryPolicy{MaxAttempts: 3, InitialBackoff: 5 * time.Millisecond}
	return &mirror{
		provider: w.provider,
		mdcache:  md.NewCache(&gpos.MemoryAccountant{}),
		plans:    plancache.New(planCacheBytes),
		cfg:      cfg,
		tr:       tr,
	}
}

// reply is what the mirror answers one request with, plus the layer counters
// that orcad's HTTP reply does not carry.
type reply struct {
	body       string // what orcad's response must carry: explain text, or the DXL plan document
	cacheState string // X-Orca-Cache: "", "hit" or "miss"
	plan       *ops.Expr
	outCols    []base.ColID
	cost       float64
	stage      string

	searched     bool
	rulesFired   int64
	groups       int
	groupExprs   int
	peakMemBytes int64
	search       searchStats
	mdHits       int64
	mdMisses     int64
}

type searchStats struct {
	wall, busy  time.Duration
	steps       int64
	stepsByKind map[string]int64
	peakQueue   int
	utilization float64
}

func jobKindNames() []string {
	var out []string
	for k := 0; k < search.NumJobKinds; k++ {
		out = append(out, search.JobKind(k).String())
	}
	return out
}

// optimize answers one request as orcad does: payload is SQL text for
// POST /optimize, a DXL query document for POST /optimize/dxl.
func (m *mirror) optimize(ctx context.Context, reqID int, payload string, asDXL bool) (*reply, error) {
	// sql.Bind parses and binds in one call; an extra Parse, a root span
	// outside the request's, lets sql.bind_us be reported net of parsing.
	if m.tr != nil && !asDXL {
		sp := m.tr.beginRoot("sql.parse", reqID)
		_, _ = sql.Parse(payload)
		m.tr.end(sp)
	}
	root := m.tr.beginRoot("request", reqID)
	defer m.tr.end(root)
	acc, f := m.session(ctx)
	h0, m0 := m.mdcache.Stats()
	q, err := m.bind(acc, f, payload, asDXL)
	if err != nil {
		return nil, err
	}
	rep, err := m.cachedOptimize(ctx, acc, q)
	if err != nil {
		return nil, err
	}
	if asDXL {
		sp := m.tr.begin("dxl.serialize_plan")
		rep.body = dxl.SerializePlan(rep.plan).Render() + "\n"
		m.tr.end(sp)
	} else {
		sp := m.tr.begin("core.explain")
		rep.body = core.Explain(rep.plan, q.Factory)
		m.tr.end(sp)
	}
	h1, m1 := m.mdcache.Stats()
	rep.mdHits, rep.mdMisses = h1-h0, m1-m0
	return rep, nil
}

func (m *mirror) bind(acc *md.Accessor, f *md.ColumnFactory, payload string, asDXL bool) (*core.Query, error) {
	if !asDXL {
		sp := m.tr.begin("sql.bind")
		q, err := sql.Bind(payload, acc, f)
		m.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("bind: %w", err)
		}
		return q, nil
	}
	sp := m.tr.begin("dxl.parse_xml")
	node, err := dxl.ParseXML(payload)
	m.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parsing DXL: %w", err)
	}
	sp = m.tr.begin("dxl.parse_query")
	q, err := dxl.ParseQuery(node, acc, f)
	m.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parsing DXL query: %w", err)
	}
	return q, nil
}

func (m *mirror) session(ctx context.Context) (*md.Accessor, *md.ColumnFactory) {
	acc := md.NewAccessor(m.mdcache, m.provider)
	acc.BindContext(ctx)
	acc.SetLookupTimeout(m.cfg.MDLookupTimeout)
	acc.SetRetryPolicy(m.cfg.MDRetry)
	return acc, md.NewColumnFactory()
}

func (m *mirror) cachedOptimize(ctx context.Context, acc *md.Accessor, q *core.Query) (*reply, error) {
	rep := &reply{outCols: q.OutCols}
	if !m.plans.Enabled() {
		return rep, m.search(ctx, q, rep)
	}
	rep.cacheState = "miss"
	sp := m.tr.begin("plancache.extract")
	shape, cacheable := plancache.Extract(q.Tree, q.Order, q.OutCols)
	m.tr.end(sp)
	if !cacheable {
		return rep, m.search(ctx, q, rep)
	}
	sp = m.tr.begin("plancache.lookup")
	req, ok := m.plans.InternReq(props.Required{Dist: props.SingletonDist, Order: q.Order})
	if !ok {
		m.tr.end(sp)
		return rep, m.search(ctx, q, rep)
	}
	key := plancache.Key{FP: shape.FP, Req: req, Buckets: shape.Buckets, MDVersion: acc.MDVersion()}
	e, hit := m.plans.Lookup(key, shape.Vector)
	m.tr.end(sp)
	if hit {
		sp = m.tr.begin("plancache.rebind")
		plan, ok := plancache.Rebind(e.Plan, shape.Vector)
		m.tr.end(sp)
		if ok {
			rep.cacheState = "hit"
			rep.plan = plan
			return rep, nil
		}
	}
	if err := m.search(ctx, q, rep); err != nil {
		return nil, err
	}
	if acc.MDVersion() != acc.MDVersionAtOpen() || acc.MDVersion() != key.MDVersion {
		return rep, nil
	}
	sp = m.tr.begin("plancache.admit")
	if plan, ok := plancache.Parameterize(rep.plan, shape.Vector); ok {
		m.plans.Admit(key, &plancache.Entry{
			Plan: plan, Cost: rep.cost, Stage: rep.stage, NParams: len(shape.Vector),
		})
	}
	m.tr.end(sp)
	return rep, nil
}

// search runs the full optimization and records what core.Result exposes of
// the search, memo and xform layers.
func (m *mirror) search(ctx context.Context, q *core.Query, rep *reply) error {
	sp := m.tr.begin("core.optimize")
	res, err := core.OptimizeContext(ctx, q, m.cfg)
	if err == nil {
		m.tr.child("search.run", res.Search.Wall)
	}
	m.tr.end(sp)
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	if res.Degraded || res.Failure != nil {
		return fmt.Errorf("optimize: degraded plan (%s)", res.DegradedRung)
	}
	for _, sr := range res.StageRuns {
		if sr.TimedOut || sr.Aborted {
			return fmt.Errorf("optimize: stage %s cut short", sr.Name)
		}
	}
	rep.plan, rep.cost, rep.stage = res.Plan, res.Cost, res.Stage
	rep.searched = true
	rep.rulesFired, rep.groups, rep.groupExprs = res.RulesFired, res.Groups, res.GroupExprs
	rep.peakMemBytes = res.PeakMemBytes
	rep.search = searchStats{
		wall: res.Search.Wall, busy: res.Search.Busy,
		steps: res.Search.TotalSteps(), stepsByKind: map[string]int64{},
		peakQueue: res.Search.PeakQueue, utilization: res.Search.Utilization(),
	}
	for k, n := range res.Search.Steps {
		rep.search.stepsByKind[search.JobKind(k).String()] = n
	}
	return nil
}

// cacheStats reads the mirror's plan-cache counters.
func (m *mirror) cacheStats() (hits, misses, evictions, entries, bytes int64) {
	st := m.plans.Stats()
	return st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes
}
