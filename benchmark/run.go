package main

// run.go runs one workload: set-up → sequential warm-up → sequential verify →
// concurrent timed phase (tracing off) → /varz and /proc read-out → traced
// in-process replay, and turns what it saw into the named metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig selects what one run does. The contract's --trace 0 is
// timed without traced, --trace 1 is traced with a short timed phase (the
// serve metrics need HTTP latencies and /varz deltas).
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	e2e     bool // full timed phase, set-up timed three times; fills runResult.e2e
	traced  bool // traced replay; fills runResult.layer
	smoke   bool // tiny streams, for the smoke test
	root    string
	log     io.Writer
}

type runResult struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]metric
	layer     map[string]metric
	problems  []string // why correct is false
}

// env is one set-up: catalog harvested, orcad built, started and ready, data
// loaded and checked against the expected digests.
type env struct {
	dir      string
	world    *world
	srv      *orcad
	expected *expectedFile
}

func setUp(root string, w workload) (*env, error) {
	dir := filepath.Join(root, buildDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	doc := harvestCatalog()
	catalogPath := filepath.Join(dir, "catalog.dxl")
	if err := os.WriteFile(catalogPath, []byte(doc), 0o644); err != nil {
		return nil, err
	}
	bin, err := buildOrcad(root)
	if err != nil {
		return nil, err
	}
	srv, err := startOrcad(bin, catalogPath, dir, w.clients, w.flags...)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, srv: srv}
	if e.world, err = loadWorld(doc); err == nil {
		if e.expected, err = loadExpected(root); err == nil {
			err = e.expected.checkData(e.world)
		}
	}
	if err != nil {
		srv.stop()
		return nil, err
	}
	return e, nil
}

// seqRecord is what the sequential phases remember of each request for the
// determinism self-check against the traced replay.
type seqRecord struct {
	body                          string
	rulesFired, groupExprs, steps int64
	work                          int64
}

type wrongPlan struct {
	req       request
	got, want rowsDigest
	known     bool
}

type runner struct {
	cfg    runConfig
	env    *env
	stream *stream
	ctx    context.Context

	refs    map[string]rowsDigest // generated query text → Planner rows
	execs   map[string]execResult // reply body → execution
	records []seqRecord
	wrong   []wrongPlan
	// verified counts verify-phase plans, workUnits sums their work.
	verified  int
	workUnits int64
}

func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{correct: true, e2e: map[string]metric{}, layer: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	if n := runtime.NumCPU(); n < cfg.w.clients {
		fail("invalid run: %d CPUs for %d clients", n, cfg.w.clients)
	}

	// Set-up, timed. An end-to-end run sets up three times and reports the
	// median, because one go build or process start is a noisy sample.
	var setups []float64
	var e *env
	reps := 1
	if cfg.e2e {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		if e != nil {
			e.srv.stop()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(cfg.root, cfg.w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.srv.stop()

	// The stream, generated twice: one seed must give identical bytes.
	newEncoder := func() encoder {
		if cfg.w.dxl {
			return dxlEncoder(e.world)
		}
		return sqlBody
	}
	st, err := cfg.w.build(cfg.seed, cfg.smoke, newEncoder())
	if err != nil {
		return nil, fmt.Errorf("generating stream: %w", err)
	}
	again, err := cfg.w.build(cfg.seed, cfg.smoke, newEncoder())
	if err != nil {
		return nil, fmt.Errorf("generating stream: %w", err)
	}
	if !sameStream(st, again) {
		fail("nondeterministic: two streams from seed %d differ", cfg.seed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	r := &runner{cfg: cfg, env: e, stream: st, ctx: ctx, refs: map[string]rowsDigest{}, execs: map[string]execResult{}}

	// Sequential phases: orcad and the mirror take the same requests in the
	// same order, so their plan caches evolve alike.
	m := newMirror(e.world, cfg.w.cache, nil)
	seqN := st.warm + st.verify
	for i, req := range st.reqs[:seqN] {
		if err := r.sequential(m, i, req, i >= st.warm); err != nil {
			return nil, fmt.Errorf("request %d (%s): %w", i, req.template, err)
		}
	}
	res.attempted += seqN
	for _, wp := range r.wrong {
		fmt.Fprintf(cfg.log, "wrong_plan %s template=%s known=%v got=%d/%s want=%d/%s sql=%s\n",
			cfg.w.name, wp.req.template, wp.known, wp.got.Rows, short(wp.got.SHA256), wp.want.Rows, short(wp.want.SHA256), wp.req.sql)
		if !wp.known {
			res.failed++
			fail("wrong rows from template %s: %s", wp.req.template, wp.req.sql)
		}
	}

	// Timed phase.
	seconds := cfg.seconds
	if !cfg.e2e {
		seconds = min(seconds/3, 5)
	}
	tp, err := r.timedPhase(seqN, seconds)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	res.attempted += tp.sent
	res.failed += tp.failed
	if tp.failed > 0 {
		fail("%d of %d timed requests failed (first: %s)", tp.failed, tp.sent, tp.firstFailure)
	}
	hitRatio := 0.0
	if tp.hits+tp.misses > 0 {
		hitRatio = float64(tp.hits) / float64(tp.hits+tp.misses)
	}
	switch {
	case cfg.w.cache == 0 && tp.hits+tp.misses > 0:
		fail("property: %d replies carry X-Orca-Cache with the plan cache off", tp.hits+tp.misses)
	case cfg.w.cache > 0 && !cfg.smoke && (hitRatio < cfg.w.hitBand[0] || hitRatio > cfg.w.hitBand[1]):
		fail("property: timed-phase hit ratio %.4f outside [%g, %g]", hitRatio, cfg.w.hitBand[0], cfg.w.hitBand[1])
	}
	fmt.Fprintf(cfg.log, "%s timed: %d sent, %d failed, %d windows, hit ratio %.4f, %.2f s\n",
		cfg.w.name, tp.sent, tp.failed, len(tp.windows), hitRatio, tp.wall.Seconds())

	if cfg.e2e {
		sort.Float64s(setups)
		res.e2e["setup_s"] = metric{setups[len(setups)/2], "s"}
		res.e2e["qps"] = metric{medianOf(tp.windows, func(w window) float64 { return w.qps }), "1/s"}
		res.e2e["latency_p50_ms"] = metric{medianOf(tp.windows, func(w window) float64 { return w.p50 }), "ms"}
		res.e2e["latency_p95_ms"] = metric{medianOf(tp.windows, func(w window) float64 { return w.p95 }), "ms"}
		res.e2e["cpu_ms_per_req"] = metric{ms(tp.serverCPU) / float64(max(tp.sent-tp.failed, 1)), "ms"}
		res.e2e["peak_rss_mb"] = metric{float64(tp.peakRSS) / (1 << 20), "MB"}
		res.e2e["plan_work_units"] = metric{float64(r.workUnits), "count"}
	}

	if cfg.traced {
		if err := r.tracedReplay(res, tp, fail); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}

	// Share lines a reader wants in either mode.
	fmt.Fprintf(cfg.log, "%s failed_share %.6f ratio\n", cfg.w.name, float64(tp.failed)/float64(max(tp.sent, 1)))
	fmt.Fprintf(cfg.log, "%s wrong_plan_share %.6f ratio (%d of %d verified plans)\n",
		cfg.w.name, float64(len(r.wrong))/float64(max(r.verified, 1)), len(r.wrong), r.verified)
	for _, p := range res.problems {
		fmt.Fprintf(cfg.log, "%s PROBLEM %s\n", cfg.w.name, p)
	}
	return res, nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dxlEncoder is the encoder of POST /optimize/dxl. Streams repeat texts, and
// converting one binds it, so documents are kept by text.
func dxlEncoder(w *world) encoder {
	docs := map[string][]byte{}
	return func(text string) ([]byte, error) {
		if doc, ok := docs[text]; ok {
			return doc, nil
		}
		doc, err := w.toDXL(text)
		if err != nil {
			return nil, err
		}
		docs[text] = []byte(doc)
		return docs[text], nil
	}
}

func sameStream(a, b *stream) bool {
	if len(a.reqs) != len(b.reqs) {
		return false
	}
	for i := range a.reqs {
		if a.reqs[i].sql != b.reqs[i].sql || !bytes.Equal(a.reqs[i].body, b.reqs[i].body) {
			return false
		}
	}
	return true
}

func (r *runner) path() (path, contentType string) {
	if r.cfg.w.dxl {
		return "/optimize/dxl", "application/xml"
	}
	return "/optimize", "application/json"
}

// planOf checks one HTTP reply and extracts what must equal the mirror's
// body: the explain text, or the whole DXL plan document. A non-200 status,
// an untyped body, an empty plan and a degraded plan are all failures.
func (r *runner) planOf(hr httpReply) (string, error) {
	if hr.status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", hr.status, bytes.TrimSpace(hr.body))
	}
	if r.cfg.w.dxl {
		if !bytes.HasPrefix(hr.body, []byte("<?xml")) || !bytes.Contains(hr.body, []byte("<dxl:Plan")) {
			return "", fmt.Errorf("reply is not a DXL plan document")
		}
		return string(hr.body), nil
	}
	var body struct {
		Plan     string `json:"plan"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(hr.body, &body); err != nil {
		return "", fmt.Errorf("untyped body: %v", err)
	}
	if body.Plan == "" {
		return "", fmt.Errorf("empty plan")
	}
	if body.Degraded {
		return "", fmt.Errorf("degraded plan")
	}
	return body.Plan, nil
}

func (r *runner) mirrorOptimize(m *mirror, id int, req request) (*reply, error) {
	if r.cfg.w.dxl {
		return m.optimize(r.ctx, id, string(req.body), true)
	}
	return m.optimize(r.ctx, id, req.sql, false)
}

// recordOf is what two passes over one request must agree on.
func recordOf(rep *reply, work int64) seqRecord {
	return seqRecord{body: rep.body, rulesFired: rep.rulesFired, groupExprs: int64(rep.groupExprs), steps: rep.search.steps, work: work}
}

// sequential sends request i to orcad and to the mirror and requires the
// same answer from both; on verify requests it also executes the plan and
// compares its rows with the reference.
func (r *runner) sequential(m *mirror, i int, req request, verify bool) error {
	path, ct := r.path()
	hr, err := r.env.srv.post(r.ctx, path, ct, req.body)
	if err != nil {
		return err
	}
	plan, err := r.planOf(hr)
	if err != nil {
		return fmt.Errorf("orcad: %w", err)
	}
	rep, err := r.mirrorOptimize(m, i, req)
	if err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	if rep.body != plan || rep.cacheState != hr.cacheState {
		return fmt.Errorf("mirror drift: orcad answered (cache %q)\n%s\nthe mirror (cache %q)\n%s",
			hr.cacheState, plan, rep.cacheState, rep.body)
	}
	var work int64
	if verify {
		ex, err := r.execute(rep)
		if err != nil {
			return err
		}
		work = ex.work
		r.verified++
		r.workUnits += ex.work
		want, err := r.reference(req)
		if err != nil {
			return err
		}
		if ex.digest != want {
			r.wrong = append(r.wrong, wrongPlan{req: req, got: ex.digest, want: want, known: r.env.expected.knownWrong(req.template)})
		}
	}
	r.records = append(r.records, recordOf(rep, work))
	return nil
}

// execute runs a reply's plan once per distinct reply body: equal bodies are
// equal plans over equal constants.
func (r *runner) execute(rep *reply) (execResult, error) {
	if ex, ok := r.execs[rep.body]; ok {
		return ex, nil
	}
	ex, err := r.env.world.execute(rep.plan, rep.outCols)
	if err != nil {
		return ex, fmt.Errorf("executing plan: %w", err)
	}
	if ex.timedOut {
		return ex, fmt.Errorf("plan blew the execution budget of %d work units", execBudget)
	}
	r.execs[rep.body] = ex
	return ex, nil
}

// reference returns the rows a request must produce: the checked-in digest
// for the fixed TPC-DS texts, a run-time legacy-Planner execution otherwise.
func (r *runner) reference(req request) (rowsDigest, error) {
	if d, ok := r.env.expected.byText[req.sql]; ok {
		return d, nil
	}
	if d, ok := r.refs[req.sql]; ok {
		return d, nil
	}
	d, ok, err := r.env.world.plannerReference(req.sql)
	if err != nil {
		return d, fmt.Errorf("planner reference: %w", err)
	}
	if !ok {
		return d, fmt.Errorf("planner reference blew the execution budget: %s", req.sql)
	}
	r.refs[req.sql] = d
	return d, nil
}

// --- timed phase -------------------------------------------------------------

type sample struct {
	idx      int
	start    time.Duration // since the phase began
	lat      time.Duration
	ok       bool
	hit      bool // X-Orca-Cache: hit
	miss     bool // X-Orca-Cache: miss
	inBytes  int
	outBytes int
}

// window is one reporting interval of the timed phase: a whole unit (pass)
// for unit workloads, one second otherwise.
type window struct {
	qps, p50, p95 float64
}

type timedResult struct {
	sent, failed  int
	firstFailure  string
	hits, misses  int // by X-Orca-Cache header
	wall          time.Duration
	windows       []window
	samples       []sample
	serverCPU     time.Duration
	generatorCPU  time.Duration
	peakRSS       int64
	varz0, varz1  map[string]int64
	inBytes, outB float64 // mean request and reply bytes
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedPhase drives the closed loop from stream position start for about
// seconds seconds; unit workloads finish the unit they are in.
func (r *runner) timedPhase(start int, seconds float64) (*timedResult, error) {
	srv, st := r.env.srv, r.stream
	path, ct := r.path()
	pid := srv.cmd.Process.Pid
	tr := &timedResult{}
	var err error
	if tr.varz0, err = srv.varz(); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	limit := time.Duration(seconds * float64(time.Second))

	var next atomic.Int64
	perClient := make([][]sample, r.cfg.w.clients)
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				atBoundary := st.unit == 0 || i%st.unit == 0
				if i > 0 && atBoundary && time.Since(t0) >= limit {
					return
				}
				req := st.reqs[(start+i)%len(st.reqs)]
				s := sample{idx: i, start: time.Since(t0), inBytes: len(req.body)}
				hr, err := srv.post(r.ctx, path, ct, req.body)
				if err == nil {
					_, err = r.planOf(hr)
				}
				s.lat = time.Since(t0) - s.start
				s.ok = err == nil
				s.hit, s.miss = hr.cacheState == "hit", hr.cacheState == "miss"
				s.outBytes = len(hr.body)
				if err != nil {
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("%s: %v", req.template, err))
				}
				perClient[c] = append(perClient[c], s)
			}
		}()
	}
	wg.Wait()
	tr.wall = time.Since(t0)
	tr.generatorCPU = selfCPU() - gen0
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	tr.serverCPU = cpu1 - cpu0
	if tr.peakRSS, err = peakRSS(pid); err != nil {
		return nil, err
	}
	if tr.varz1, err = srv.varz(); err != nil {
		return nil, err
	}
	if f, ok := firstFailure.Load().(string); ok {
		tr.firstFailure = f
	}

	for _, ss := range perClient {
		tr.samples = append(tr.samples, ss...)
	}
	sort.Slice(tr.samples, func(i, j int) bool { return tr.samples[i].idx < tr.samples[j].idx })
	for _, s := range tr.samples {
		tr.sent++
		switch {
		case !s.ok:
			tr.failed++
		case s.hit:
			tr.hits++
		case s.miss:
			tr.misses++
		}
		tr.inBytes += float64(s.inBytes) / float64(len(tr.samples))
		tr.outB += float64(s.outBytes) / float64(len(tr.samples))
	}
	tr.windows = windowsOf(tr.samples, st.unit, limit)
	return tr, nil
}

// windowsOf cuts the samples into reporting windows. Unit workloads get one
// window per unit; the others one per whole second, by completion time, with
// the ragged end past the limit dropped.
func windowsOf(samples []sample, unit int, limit time.Duration) []window {
	var groups [][]sample
	var spans []time.Duration
	if unit > 0 {
		for i := 0; i+unit <= len(samples); i += unit {
			g := samples[i : i+unit]
			begin := g[0].start
			last := g[unit-1]
			groups = append(groups, g)
			spans = append(spans, last.start+last.lat-begin)
		}
	} else {
		whole := int(limit / time.Second)
		byWindow := make([][]sample, whole)
		for _, s := range samples {
			if w := int((s.start + s.lat) / time.Second); w < whole {
				byWindow[w] = append(byWindow[w], s)
			}
		}
		for _, g := range byWindow {
			groups = append(groups, g)
			spans = append(spans, time.Second)
		}
	}
	if len(groups) == 0 { // a run shorter than one window: report it whole
		var end time.Duration
		for _, s := range samples {
			end = max(end, s.start+s.lat)
		}
		groups, spans = [][]sample{samples}, []time.Duration{end}
	}
	var out []window
	for i, g := range groups {
		var lats []float64
		for _, s := range g {
			if s.ok {
				lats = append(lats, ms(s.lat))
			}
		}
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		out = append(out, window{
			qps: float64(len(lats)) / spans[i].Seconds(),
			p50: quantile(lats, 0.50),
			p95: quantile(lats, 0.95),
		})
	}
	return out
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianOf(ws []window, f func(window) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return median(v)
}

// --- traced replay -----------------------------------------------------------

// tracedSlice is how much of the stream the traced replay covers beyond the
// sequential phases (which it always replays, for the determinism check).
const tracedSlice = 2000

func (r *runner) tracedReplay(res *runResult, tp *timedResult, fail func(string, ...any)) error {
	cfg, st := r.cfg, r.stream
	seqN := st.warm + st.verify
	n := seqN
	if st.unit == 0 {
		n = min(max(seqN, tracedSlice), len(st.reqs))
	}
	tr := newTracer()
	m := newMirror(r.env.world, cfg.w.cache, tr)
	var replies []*reply
	type engineRun struct{ work, rows int64 }
	var engineRuns []engineRun
	nondet := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i, req := range st.reqs[:n] {
		if i >= seqN && time.Now().After(deadline) {
			break
		}
		rep, err := r.mirrorOptimize(m, i, req)
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, req.template, err)
		}
		replies = append(replies, rep)
		var work int64
		if i >= st.warm && i < seqN {
			sp := tr.beginRoot("engine.exec", i)
			ex, err := r.env.world.execute(rep.plan, rep.outCols)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("request %d (%s): executing plan: %w", i, req.template, err)
			}
			work = ex.work
			engineRuns = append(engineRuns, engineRun{ex.work, int64(ex.rowsOut)})
		}
		if i < seqN {
			rec := r.records[i]
			if got := recordOf(rep, work); got != rec {
				nondet++
				fail("nondeterministic: request %d (%s): second pass rules/gexprs/steps/work %d/%d/%d/%d, first %d/%d/%d/%d, same plan %v",
					i, req.template, got.rulesFired, got.groupExprs, got.steps, got.work,
					rec.rulesFired, rec.groupExprs, rec.steps, rec.work, got.body == rec.body)
			}
		}
	}
	if err := writeTrace(filepath.Join(r.env.dir, "trace.json"), cfg.w.name, cfg.seed, tr.spans); err != nil {
		return err
	}

	// Allocation counts come from a pass of their own over the verify slice,
	// on the same, now warm, mirror: reading them stops the world.
	atr := newAllocTracer()
	m.tr = atr
	for i := st.warm; i < seqN; i++ {
		if _, err := r.mirrorOptimize(m, i, st.reqs[i]); err != nil {
			return fmt.Errorf("allocation pass: request %d (%s): %w", i, st.reqs[i].template, err)
		}
	}

	// Everything below describes the steady state: requests after the
	// warm-up, which seeds caches the timed phase never pays for again.
	replies = replies[st.warm:]
	reqs, areqs := perRequest(tr.spans, st.warm), perRequest(atr.spans, 0)
	self := selfTimes(tr.spans)
	layerSelf := map[string]time.Duration{}
	var requestTotal time.Duration
	for i, s := range tr.spans {
		if s.Req < st.warm {
			continue
		}
		if s.Name == "request" {
			requestTotal += s.dur()
		}
		if s.Parent != 0 { // spans inside a request span
			layerSelf[s.layer()] += self[i]
		}
	}
	// p50 over the requests in which the span occurs, net of minus if given.
	p50 := func(name, minus string) float64 {
		var v []float64
		for _, p := range reqs {
			if d, ok := p.dur[name]; ok {
				v = append(v, us(d-p.dur[minus]))
			}
		}
		return median(v)
	}
	// p50allocs is the same over the allocation pass, summing the named
	// spans, over the requests in which the last one occurs.
	p50allocs := func(bytes bool, names ...string) float64 {
		var v []float64
		for _, p := range areqs {
			if _, ok := p.dur[names[len(names)-1]]; !ok {
				continue
			}
			var n uint64
			for _, name := range names {
				if bytes {
					n += p.bytes[name]
				} else {
					n += p.allocs[name]
				}
			}
			v = append(v, float64(n))
		}
		return median(v)
	}
	L := res.layer
	put := func(name string, v float64) { L[name] = metric{v, layerUnit(name)} }

	// serve: from outside orcad. HTTP latency and the mirror's request span
	// are compared template by template, because the timed phase and the
	// traced slice need not hold the same mix.
	var lats []float64
	httpBy, mirrorBy := map[string][]float64{}, map[string][]float64{}
	for _, s := range tp.samples {
		if s.ok {
			lats = append(lats, ms(s.lat))
			t := st.reqs[(seqN+s.idx)%len(st.reqs)].template
			httpBy[t] = append(httpBy[t], us(s.lat))
		}
	}
	sort.Float64s(lats)
	for id, p := range reqs {
		t := st.reqs[id].template
		mirrorBy[t] = append(mirrorBy[t], us(p.dur["request"]))
	}
	var residuals, coverages []float64
	for t, h := range httpBy {
		if m, ok := mirrorBy[t]; ok {
			residuals = append(residuals, median(h)-median(m))
			coverages = append(coverages, median(m)/median(h))
		}
	}
	put("serve.residual_us", median(residuals))
	put("serve.latency_p99_ms", quantile(lats, 0.99))
	dv := func(k string) float64 { return float64(tp.varz1[k] - tp.varz0[k]) }
	put("serve.admitted", dv("admitted"))
	put("serve.shed", dv("shed"))
	put("serve.degraded", dv("degraded"))
	put("serve.failed", dv("failed"))
	put("serve.failed_share", float64(tp.failed)/float64(max(tp.sent, 1)))

	put("sql.parse_us", p50("sql.parse", ""))
	put("sql.bind_us", p50("sql.bind", "sql.parse"))
	put("sql.bind_allocs", p50allocs(false, "sql.bind"))

	var mdHits, mdMisses int64
	for _, rep := range replies {
		mdHits += rep.mdHits
		mdMisses += rep.mdMisses
	}
	put("md.cache_hits", float64(mdHits))
	put("md.cache_misses", float64(mdMisses))
	put("md.lookups_per_req", float64(mdHits+mdMisses)/float64(max(len(replies), 1)))

	put("dxl.parse_xml_us", p50("dxl.parse_xml", ""))
	put("dxl.parse_query_us", p50("dxl.parse_query", ""))
	put("dxl.serialize_plan_us", p50("dxl.serialize_plan", ""))
	if cfg.w.dxl {
		put("dxl.request_bytes", tp.inBytes)
		put("dxl.response_bytes", tp.outB)
	} else {
		put("dxl.request_bytes", 0)
		put("dxl.response_bytes", 0)
	}

	put("plancache.extract_us", p50("plancache.extract", ""))
	put("plancache.lookup_us", p50("plancache.lookup", ""))
	put("plancache.rebind_us", p50("plancache.rebind", ""))
	put("plancache.admit_us", p50("plancache.admit", ""))
	put("plancache.hit_allocs", p50allocs(false, "plancache.extract", "plancache.lookup", "plancache.rebind"))
	ratio := 0.0
	if d := dv("plan_cache_hits") + dv("plan_cache_misses"); d > 0 {
		ratio = dv("plan_cache_hits") / d
	}
	put("plancache.hit_ratio", ratio)
	put("plancache.evictions", dv("plan_cache_evictions"))
	put("plancache.entries", float64(tp.varz1["plan_cache_entries"]))
	put("plancache.bytes", float64(tp.varz1["plan_cache_bytes"]))
	if cfg.w.name == "churn_mix" && !cfg.smoke && dv("plan_cache_evictions") <= 0 {
		fail("property: no plan-cache evictions in the timed phase")
	}

	put("core.optimize_us", p50("core.optimize", ""))
	put("core.self_us", p50("core.optimize", "search.run"))
	put("core.explain_us", p50("core.explain", ""))
	put("core.optimize_allocs", p50allocs(false, "core.optimize"))
	put("core.optimize_alloc_bytes", p50allocs(true, "core.optimize"))

	// search, memo, xform: what core.Result exposes, over searched requests.
	var searched float64
	var wall, busy []float64
	var steps, groups, gexprs, rules, peakQ, util, peakMem float64
	var busyTotal time.Duration
	kinds := map[string]float64{}
	for _, rep := range replies {
		if !rep.searched {
			continue
		}
		searched++
		wall = append(wall, us(rep.search.wall))
		busy = append(busy, us(rep.search.busy))
		busyTotal += rep.search.busy
		steps += float64(rep.search.steps)
		for k, n := range rep.search.stepsByKind {
			kinds[k] += float64(n)
		}
		groups += float64(rep.groups)
		gexprs += float64(rep.groupExprs)
		rules += float64(rep.rulesFired)
		peakQ = max(peakQ, float64(rep.search.peakQueue))
		util += rep.search.utilization
		peakMem = max(peakMem, float64(rep.peakMemBytes))
	}
	per := func(v float64) float64 {
		if searched == 0 {
			return 0
		}
		return v / searched
	}
	put("search.wall_us", median(wall))
	put("search.busy_us", median(busy))
	put("search.steps", per(steps))
	for _, k := range jobKindNames() {
		put("search.steps."+k, per(kinds[k]))
	}
	put("search.peak_queue", peakQ)
	put("search.utilization", per(util))
	put("memo.groups", per(groups))
	put("memo.group_exprs", per(gexprs))
	put("memo.peak_mem_bytes", peakMem)
	put("xform.rules_fired", per(rules))
	if rules > 0 {
		put("xform.us_per_rule", us(busyTotal)/rules)
	} else {
		put("xform.us_per_rule", 0)
	}

	var work, rows float64
	for _, e := range engineRuns {
		work += float64(e.work)
		rows += float64(e.rows)
	}
	put("engine.exec_work_units", work)
	put("engine.exec_us", p50("engine.exec", ""))
	put("engine.rows_out", rows)

	// share.<layer>: self time inside the request spans, as a share of them;
	// share.serve is what of the HTTP median the mirror's request does not
	// account for.
	coverage := median(coverages)
	put("share.serve", min(max(1-coverage, 0), 1))
	for _, l := range []string{"sql", "dxl", "plancache", "core", "search"} {
		put("share."+l, float64(layerSelf[l])/float64(max(requestTotal, 1)))
	}
	put("trace.coverage", coverage)
	gen := 0.0
	if tp.serverCPU > 0 {
		gen = float64(tp.generatorCPU) / float64(tp.serverCPU)
	}
	put("generator.cpu_share", gen)

	known := 0
	for _, wp := range r.wrong {
		if wp.known {
			known++
		}
	}
	put("verify.plans", float64(r.verified))
	put("verify.wrong_plans", float64(len(r.wrong)))
	put("verify.known_wrong_plans", float64(known))
	put("verify.wrong_plan_share", float64(len(r.wrong))/float64(max(r.verified, 1)))
	put("verify.nondeterministic", float64(nondet))

	if !cfg.smoke {
		switch s := L["share.search"].Value; {
		case cfg.w.name == "cold_search" && s <= 0.9:
			fail("property: share.search %.3f on cold_search, want > 0.9", s)
		case cfg.w.name == "warm_hits" && s >= 0.05:
			fail("property: share.search %.3f on warm_hits, want < 0.05", s)
		}
	}
	return nil
}

// perReq is one request's spans summed by name.
type perReq struct {
	dur    map[string]time.Duration
	allocs map[string]uint64
	bytes  map[string]uint64
}

// perRequest groups the spans of requests from position from on.
func perRequest(spans []span, from int) map[int]*perReq {
	reqs := map[int]*perReq{}
	for _, s := range spans {
		if s.Req < from {
			continue
		}
		p := reqs[s.Req]
		if p == nil {
			p = &perReq{map[string]time.Duration{}, map[string]uint64{}, map[string]uint64{}}
			reqs[s.Req] = p
		}
		p.dur[s.Name] += s.dur()
		p.allocs[s.Name] += s.Allocs
		p.bytes[s.Name] += s.AllocBytes
	}
	return reqs
}

// hostInfo is recorded with every result file.
func hostInfo(root string) map[string]string {
	commit := "unknown"
	if data, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(data))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				commit = strings.TrimSpace(string(data))
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
