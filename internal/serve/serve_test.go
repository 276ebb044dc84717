package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

const demoSQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a"

// demoProvider is the paper's §4.1 two-table catalog.
func demoProvider() md.Provider {
	p := md.NewMemProvider()
	md.Build(p, md.TableSpec{
		Name: "t1", Rows: 100000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 50000, Lo: 0, Hi: 50000},
			{Name: "b", Type: base.TInt, NDV: 1000, Lo: 0, Hi: 1000},
		},
	})
	md.Build(p, md.TableSpec{
		Name: "t2", Rows: 80000, Policy: md.DistHash, DistCols: []int{0},
		Cols: []md.ColSpec{
			{Name: "a", Type: base.TInt, NDV: 80000, Lo: 0, Hi: 80000},
			{Name: "b", Type: base.TInt, NDV: 40000, Lo: 0, Hi: 50000},
		},
	})
	return p
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Base:     core.DefaultConfig(16),
		Provider: demoProvider(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// postJSON posts an optimizeRequest and decodes either the success body or
// the taxonomy error body.
func postJSON(t *testing.T, url string, req optimizeRequest) (int, http.Header, optimizeResponse, *APIError) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out optimizeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("parsing success body %q: %v", data, err)
		}
		return resp.StatusCode, resp.Header, out, nil
	}
	return resp.StatusCode, resp.Header, optimizeResponse{}, parseTaxonomy(t, data)
}

// parseTaxonomy decodes a non-2xx body, failing the test if it is not a
// well-formed taxonomy error — the service must never emit an untyped error.
func parseTaxonomy(t *testing.T, data []byte) *APIError {
	t.Helper()
	var wrap struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(data, &wrap); err != nil || wrap.Error == nil ||
		wrap.Error.Component == "" || wrap.Error.Code == "" {
		t.Fatalf("non-2xx body is not a taxonomy error: %q", data)
	}
	return wrap.Error
}

func armFaults(t *testing.T, schedule string) {
	t.Helper()
	specs, err := fault.ParseSpecs(schedule)
	if err != nil {
		t.Fatalf("ParseSpecs(%q): %v", schedule, err)
	}
	disarm, err := fault.Arm(specs)
	if err != nil {
		t.Fatalf("Arm(%q): %v", schedule, err)
	}
	t.Cleanup(disarm)
}

func TestOptimizeRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, out, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL, EmitDXL: true})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if out.Plan == "" || !strings.Contains(out.Plan, "GatherMerge") {
		t.Errorf("plan explain missing GatherMerge root:\n%s", out.Plan)
	}
	if out.DXL == "" {
		t.Error("emit_dxl set but no DXL plan in response")
	}
	if out.Cost <= 0 || out.Degraded {
		t.Errorf("cost=%v degraded=%v, want positive cost, no degradation", out.Cost, out.Degraded)
	}
	snap := s.Vars().Snapshot()
	if snap["admitted"] != 1 || snap["completed"] != 1 || snap["in_flight"] != 0 {
		t.Errorf("varz after one request: %v", snap)
	}
}

// demoDXL builds demoSQL's DXL query document the way a client database
// would: bind the SQL once out-of-band and serialize the bound query.
func demoDXL(t *testing.T) string {
	t.Helper()
	acc := md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), demoProvider())
	q, err := sql.Bind(demoSQL, acc, md.NewColumnFactory())
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return dxl.SerializeQuery(q).Render()
}

func TestOptimizeDXLRoundTrip(t *testing.T) {
	doc := demoDXL(t)
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/optimize/dxl", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatalf("POST /optimize/dxl: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %q", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "Plan") {
		t.Errorf("response is not a DXL plan message: %q", data)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/optimize")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status %d, want 405", resp.StatusCode)
		}
		parseTaxonomy(t, data)
	})
	t.Run("invalid json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		if apiErr := parseTaxonomy(t, data); apiErr.Code != CodeBadRequest {
			t.Errorf("code %q, want %q", apiErr.Code, CodeBadRequest)
		}
	})
	t.Run("missing sql", func(t *testing.T) {
		status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{})
		if status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Errorf("status %d code %q, want 400 %q", status, apiErr.Code, CodeBadRequest)
		}
	})
	t.Run("unknown table", func(t *testing.T) {
		status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: "SELECT a FROM nope"})
		if status != http.StatusNotFound {
			t.Errorf("status %d, want 404", status)
		}
		if apiErr.Component != string(gpos.CompMD) || apiErr.Code != "NotFound" {
			t.Errorf("taxon %s/%s, want md/NotFound", apiErr.Component, apiErr.Code)
		}
	})
	t.Run("invalid dxl", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/optimize/dxl", "application/xml", strings.NewReader("<not dxl"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		parseTaxonomy(t, data)
	})
	t.Run("two-root dxl", func(t *testing.T) {
		// A valid query followed by a second root, which must not be dropped.
		doc := demoDXL(t) + "<dxl:C><dxl:D/></dxl:C>"
		resp, err := http.Post(ts.URL+"/optimize/dxl", "application/xml", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if apiErr := parseTaxonomy(t, data); resp.StatusCode != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Errorf("status %d code %q, want 400 %q", resp.StatusCode, apiErr.Code, CodeBadRequest)
		}
	})
}

// TestShedQueueFull: with one slot and no queue, a second concurrent request
// is shed immediately with 429, Retry-After, and the AdmissionShed taxon.
func TestShedQueueFull(t *testing.T) {
	armFaults(t, "serve/handler/slow:delay=400ms:limit=1")
	s := newTestServer(t, func(c *Config) {
		c.Admission = AdmissionConfig{MaxInFlight: 1, MaxQueue: 0}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		status, _, _, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
		first <- status
	}()
	waitFor(t, "first request in flight", func() bool { return s.Vars().InFlight.Load() == 1 })

	status, hdr, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", status)
	}
	if apiErr.Code != CodeShed || !apiErr.Retryable || apiErr.RetryAfterMS <= 0 {
		t.Errorf("shed taxon = %+v", apiErr)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := <-first; got != http.StatusOK {
		t.Errorf("first request: status %d, want 200", got)
	}
	if shed := s.Vars().Shed.Load(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
}

// TestDeadlineExceeded: a request whose deadline expires mid-lookup gets the
// 504 DeadlineExceeded taxon, marked retryable.
func TestDeadlineExceeded(t *testing.T) {
	armFaults(t, "md/provider/fetch:delay=300ms")
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL, TimeoutMS: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (taxon %+v), want 504", status, apiErr)
	}
	if apiErr.Code != CodeDeadline || !apiErr.Retryable {
		t.Errorf("deadline taxon = %+v", apiErr)
	}
	if failed := s.Vars().Failed.Load(); failed != 1 {
		t.Errorf("failed counter = %d, want 1", failed)
	}
}

// TestDegradedPlan: an injected optimizer failure engages the degradation
// ladder; the response is still 200, flagged degraded in body, header and
// varz — the paper's "fail the query gracefully, never the process" served
// over HTTP.
func TestDegradedPlan(t *testing.T) {
	armFaults(t, "core/normalize:error:limit=1")
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, hdr, out, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded)", status)
	}
	if !out.Degraded || out.DegradedRung == "" {
		t.Fatalf("response not marked degraded: %+v", out)
	}
	if hdr.Get("X-Orca-Degraded") != out.DegradedRung {
		t.Errorf("X-Orca-Degraded = %q, want %q", hdr.Get("X-Orca-Degraded"), out.DegradedRung)
	}
	if out.Plan == "" {
		t.Error("degraded response without a plan")
	}
	if s.Vars().Degraded.Load() != 1 {
		t.Errorf("degraded counter = %d, want 1", s.Vars().Degraded.Load())
	}
}

// TestPanicContained: an injected handler panic produces a 500 with the
// Panic taxon, and the server keeps serving.
func TestPanicContained(t *testing.T) {
	armFaults(t, "serve/handler/panic:panic:limit=1")
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", status)
	}
	if apiErr.Code != gpos.CodePanic {
		t.Errorf("taxon code %q, want %q", apiErr.Code, gpos.CodePanic)
	}
	if s.Vars().Panicked.Load() != 1 {
		t.Errorf("panicked counter = %d, want 1", s.Vars().Panicked.Load())
	}
	// The process survived; the next request must succeed normally.
	status, _, out, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusOK || out.Degraded {
		t.Errorf("post-panic request: status %d degraded %v, want clean 200", status, out.Degraded)
	}
}

// TestMDRetryAbsorbed: with a retry policy in the base config, injected
// transient metadata failures are retried away; the request succeeds and the
// retries show up in varz.
func TestMDRetryAbsorbed(t *testing.T) {
	armFaults(t, "serve/md/transient-error:error:every=2:limit=3")
	s := newTestServer(t, func(c *Config) {
		c.Base.MDRetry = md.RetryPolicy{MaxAttempts: 4, InitialBackoff: time.Millisecond}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, out, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusOK {
		t.Fatalf("status %d (taxon %+v), want 200", status, apiErr)
	}
	if out.MDRetries == 0 || s.Vars().Retried.Load() == 0 {
		t.Errorf("retries: body=%d varz=%d, want > 0", out.MDRetries, s.Vars().Retried.Load())
	}
}

// TestShutdownDrains: Shutdown stops admission (503 draining, /readyz 503)
// while the in-flight request runs to completion; Shutdown returns only
// once nothing is in flight.
func TestShutdownDrains(t *testing.T) {
	armFaults(t, "serve/handler/slow:delay=300ms:limit=1")
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		status, _, _, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
		first <- status
	}()
	waitFor(t, "first request in flight", func() bool { return s.Vars().InFlight.Load() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "server draining", s.Draining)

	// New work is refused with the draining taxon...
	status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
	if status != http.StatusServiceUnavailable || apiErr.Code != CodeShed {
		t.Errorf("request during drain: status %d taxon %+v, want 503 %s", status, apiErr, CodeShed)
	}
	// ...and readiness reports the drain.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503", resp.StatusCode)
	}

	// The in-flight request still completes, and only then Shutdown returns.
	if got := <-first; got != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if s.Vars().InFlight.Load() != 0 {
		t.Errorf("in-flight after drain = %d", s.Vars().InFlight.Load())
	}

	// Liveness stays green through and after the drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after drain: %d, want 200", resp.StatusCode)
	}
}

func TestBudgetFrac(t *testing.T) {
	cases := []struct {
		load, floor, want float64
	}{
		{0, 0.25, 1},
		{0.5, 0.25, 1},
		{0.75, 0.25, 0.625},
		{1, 0.25, 0.25},
		{2, 0.25, 0.25},
		{0.9, 1, 1}, // floor 1 disables scaling
	}
	for _, c := range cases {
		if got := budgetFrac(c.load, c.floor); !approxEqual(got, c.want) {
			t.Errorf("budgetFrac(%v, %v) = %v, want %v", c.load, c.floor, got, c.want)
		}
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestConfigRejected: serve.New refuses nonsense configurations.
func TestConfigRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config without a Provider")
	}
	bad := Config{Provider: demoProvider(), Base: core.Config{MemoryBudget: -1}}
	if _, err := New(bad); err == nil {
		t.Error("New accepted a base config with a negative memory budget")
	}
	bad = Config{Provider: demoProvider(), Admission: AdmissionConfig{MaxInFlight: -1}}
	if _, err := New(bad); err == nil {
		t.Error("New accepted a negative admission size")
	}
}

// waitFor polls cond (a cheap atomic read) until it holds or the deadline
// expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStormShedsBounded is the acceptance scenario in miniature: a burst at
// 4x admission capacity, every response either a plan or a typed taxonomy
// error, with at least one shed and the process intact.
func TestStormShedsBounded(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Admission = AdmissionConfig{MaxInFlight: 2, MaxQueue: 2, QueueTimeout: 200 * time.Millisecond}
		c.RequestTimeout = 5 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16 // 4x the total admission capacity of 4
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
			statuses[i] = status
		}(i)
	}
	wg.Wait()

	var ok, shed, other int
	for _, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			other++
		}
	}
	t.Logf("storm: %d ok, %d shed, %d other", ok, shed, other)
	if ok == 0 {
		t.Error("storm: no request succeeded")
	}
	if other > 0 {
		t.Errorf("storm: %d responses outside {200, 429}: %v", other, statuses)
	}
	snap := s.Vars().Snapshot()
	if snap["admitted"]+snap["shed"] != int64(n) {
		t.Errorf("admitted(%d) + shed(%d) != %d requests", snap["admitted"], snap["shed"], n)
	}
	if snap["in_flight"] != 0 || snap["queued"] != 0 {
		t.Errorf("gauges nonzero after storm: %v", snap)
	}
}

// TestAdmitPanicLabeled: a panic contained inside the admission controller
// is shed with the distinct "panic" reason and counted in admission_panics —
// never mislabeled as scheduled fault injection, which would hide a real
// admission bug behind the chaos schedule.
func TestAdmitPanicLabeled(t *testing.T) {
	armFaults(t, fault.PointServeAdmit.String()+":panic:limit=1")
	vars := &Counters{}
	a := newAdmission(AdmissionConfig{MaxInFlight: 1}, make(chan struct{}), vars)

	release, err := a.admit(context.Background())
	if release != nil || err == nil {
		t.Fatal("panicking admit returned a slot")
	}
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("admit error %T, want *ShedError", err)
	}
	if shed.Reason != ShedPanic {
		t.Errorf("shed reason = %q, want %q", shed.Reason, ShedPanic)
	}
	if got := vars.AdmitPanics.Load(); got != 1 {
		t.Errorf("admission_panics = %d, want 1", got)
	}
	if got := vars.Shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	// The limit=1 schedule is spent: the controller works again.
	release, err = a.admit(context.Background())
	if err != nil {
		t.Fatalf("post-panic admit failed: %v", err)
	}
	release()

	// An injected (non-panic) rejection keeps its own distinct reason.
	armFaults(t, fault.PointServeAdmit.String()+":error:limit=1")
	if _, err := a.admit(context.Background()); err == nil {
		t.Fatal("injected rejection did not shed")
	} else if shed, ok := err.(*ShedError); !ok || shed.Reason != ShedInjected {
		t.Errorf("injected shed reason = %v, want %q", err, ShedInjected)
	}
	if got := vars.AdmitPanics.Load(); got != 1 {
		t.Errorf("admission_panics moved on an injected error: %d", got)
	}
}
