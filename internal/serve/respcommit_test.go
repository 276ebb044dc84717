package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"orca/internal/core"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
)

// commitRecorder holds a handler to the serve tier's exactly-once response
// contract: one status line, written explicitly or by the first body write,
// one body write (every serve response is a single JSON encode or a single
// formatted line), and both before the handler returns.
type commitRecorder struct {
	*httptest.ResponseRecorder
	committed, written bool
	errs               []string
}

func (c *commitRecorder) WriteHeader(code int) {
	if c.committed {
		c.errs = append(c.errs, fmt.Sprintf("response committed more than once: WriteHeader(%d) after status %d", code, c.Code))
	}
	c.committed = true
	c.ResponseRecorder.WriteHeader(code)
}

func (c *commitRecorder) Write(b []byte) (int, error) {
	if c.written {
		c.errs = append(c.errs, fmt.Sprintf("body write after the response was already written: %q", b))
	}
	c.committed, c.written = true, true
	return c.ResponseRecorder.Write(b)
}

// serveCommitOnce runs one request through h and reports to t every breach
// of the contract: a second status or body write, or a return without any
// response (an implicit 200 with no taxonomy body).
func serveCommitOnce(t testing.TB, h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	c := &commitRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(c, req)
	if !c.committed {
		c.errs = append(c.errs, "handler returned without committing a response")
	}
	for _, e := range c.errs {
		t.Errorf("%s %s: %s", req.Method, req.URL.Path, e)
	}
	return c.ResponseRecorder
}

// TestHandlersCommitOnce drives every route through every response class it
// has — success, cache hit, each rejection, shed, contained panic, drain —
// and requires exactly one committed response each time.
func TestHandlersCommitOnce(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	doc := demoDXL(t)
	send := func(method, path, body string, want int) {
		t.Helper()
		rec := serveCommitOnce(t, h, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("%s %s: status %d, want %d (body %q)", method, path, rec.Code, want, rec.Body.String())
		}
	}
	send(http.MethodGet, "/optimize", "", http.StatusMethodNotAllowed)
	send(http.MethodPost, "/optimize", "{nope", http.StatusBadRequest)
	send(http.MethodPost, "/optimize", "{}", http.StatusBadRequest)
	send(http.MethodPost, "/optimize", `{"sql":"SELECT a FROM nope"}`, http.StatusNotFound)
	send(http.MethodPost, "/optimize", `{"sql":"`+demoSQL+`"}`, http.StatusOK)
	send(http.MethodPost, "/optimize", `{"sql":"`+demoSQL+`"}`, http.StatusOK)
	send(http.MethodGet, "/optimize/dxl", "", http.StatusMethodNotAllowed)
	send(http.MethodPost, "/optimize/dxl", "<not dxl", http.StatusBadRequest)
	send(http.MethodPost, "/optimize/dxl", doc, http.StatusOK)
	send(http.MethodGet, "/healthz", "", http.StatusOK)
	send(http.MethodGet, "/readyz", "", http.StatusOK)
	send(http.MethodGet, "/varz", "", http.StatusOK)
	for _, tc := range []struct {
		schedule string
		want     int
	}{
		{"serve/admission/reject:error:limit=1", http.StatusTooManyRequests},
		{"serve/handler/slow:error:limit=1", http.StatusInternalServerError},
		{"serve/handler/panic:panic:limit=1", http.StatusInternalServerError},
		{"core/extract:panic:limit=1", http.StatusOK}, // degraded, still one response
	} {
		disarm, err := fault.Arm(mustSpecs(t, tc.schedule))
		if err != nil {
			t.Fatal(err)
		}
		send(http.MethodPost, "/optimize", `{"sql":"SELECT t2.b FROM t2 WHERE t2.a < 7"}`, tc.want)
		disarm()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	send(http.MethodGet, "/readyz", "", http.StatusServiceUnavailable)
	send(http.MethodPost, "/optimize", `{"sql":"`+demoSQL+`"}`, http.StatusServiceUnavailable)
}

func mustSpecs(t *testing.T, schedule string) []fault.Spec {
	t.Helper()
	specs, err := fault.ParseSpecs(schedule)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// errorfRecorder is a testing.TB that records Errorf calls instead of
// failing, so the checker's own findings can be asserted.
type errorfRecorder struct {
	testing.TB
	msgs []string
}

func (r *errorfRecorder) Helper() {}

func (r *errorfRecorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

// TestCommitCheckerCatches shows the checker firing on each way a handler
// can break the contract, and staying silent on an implicit commit.
func TestCommitCheckerCatches(t *testing.T) {
	taxon := &APIError{Status: http.StatusBadRequest, Component: "serve", Code: CodeBadRequest}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    string
	}{
		{"double WriteHeader", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.WriteHeader(http.StatusOK)
		}, "committed more than once"},
		{"error then success", func(w http.ResponseWriter, r *http.Request) {
			writeAPIError(w, taxon)
			writeJSON(w, http.StatusOK, "ok")
		}, "committed more than once"},
		{"write after a finished response", func(w http.ResponseWriter, r *http.Request) {
			writeAPIError(w, taxon)
			fmt.Fprintln(w, "more")
		}, "after the response was already written"},
		{"naked return", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
		}, "without committing"},
		{"implicit commit", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		}, ""},
	} {
		rec := &errorfRecorder{TB: t}
		serveCommitOnce(rec, tc.handler, httptest.NewRequest(http.MethodGet, "/", nil))
		got := strings.Join(rec.msgs, "; ")
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: checker reported %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestErrorTaxonomy pins mapError: every failure class gets its status and
// taxon, and an exception raised anywhere in the optimizer reaches the
// client with its own component and code — no exception is served unnamed.
func TestErrorTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		name             string
		err              error
		bind             bool
		status           int
		component, code  string
		retryable, after bool
	}{
		{"queue full", &ShedError{Reason: ShedQueueFull, RetryAfter: time.Second}, false, 429, "serve", CodeShed, true, true},
		{"draining", &ShedError{Reason: ShedDraining, RetryAfter: time.Second}, false, 503, "serve", CodeShed, true, true},
		{"deadline", context.DeadlineExceeded, false, 504, "serve", CodeDeadline, true, true},
		{"lookup cancelled", gpos.Raise(gpos.CompMD, md.CodeLookupCancelled, "x"), false, 504, "serve", CodeDeadline, true, true},
		{"not found", &md.ErrNotFound{What: "relation nope"}, true, 404, "metadata", "NotFound", false, false},
		{"sql bind", gpos.Raise(gpos.CompSQL, "Syntax", "x"), true, 400, "sql", CodeBadRequest, false, false},
		{"plain bind", fmt.Errorf("bad"), true, 400, "sql", CodeBadRequest, false, false},
		{"md fault during bind", gpos.Raise(gpos.CompMD, fault.CodeInjected, "x"), true, 500, "metadata", fault.CodeInjected, false, false},
		{"lookup timeout", gpos.Raise(gpos.CompMD, md.CodeLookupTimeout, "x"), false, 500, "metadata", md.CodeLookupTimeout, true, false},
		{"unknown rule", gpos.Raise(gpos.CompOptimizer, core.CodeUnknownRule, "x"), false, 500, "optimizer", core.CodeUnknownRule, false, false},
		{"panic", gpos.Raise(gpos.CompSearch, gpos.CodePanic, "x"), false, 500, "search", gpos.CodePanic, false, false},
		{"plain", fmt.Errorf("boom"), false, 500, "serve", CodeInternal, false, false},
	} {
		got := mapError(tc.err, tc.bind)
		if got.Status != tc.status || got.Component != tc.component || got.Code != tc.code ||
			got.Retryable != tc.retryable || (got.RetryAfterMS > 0) != tc.after || got.Message == "" {
			t.Errorf("%s: mapError = %+v, want %d %s/%s retryable=%v retry-after=%v",
				tc.name, got, tc.status, tc.component, tc.code, tc.retryable, tc.after)
		}
	}
	for _, comp := range []gpos.Component{gpos.CompOptimizer, gpos.CompMemo, gpos.CompSearch,
		gpos.CompStats, gpos.CompCost, gpos.CompMD, gpos.CompDXL, gpos.CompEngine, gpos.CompServe} {
		got := mapError(gpos.Raise(comp, "AnyCode", "x"), false)
		if got.Component != string(comp) || got.Code != "AnyCode" {
			t.Errorf("%s/AnyCode reached the client as %s/%s", comp, got.Component, got.Code)
		}
	}
}
