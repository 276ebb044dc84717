package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
	"orca/internal/tpcds"
)

// hitShapes are the TPC-DS workload queries whose plans the plan cache
// admits and serves (no subqueries, constants re-locatable).
var hitShapes = map[string]bool{
	"q3": true, "q42": true, "q52": true, "q55": true, "q19": true, "q15": true,
	"q25": true, "q38": true, "q87": true, "q67": true, "q53": true, "q73": true,
	"q79": true, "q82": true, "q93": true, "q84": true, "q96": true, "q29": true,
	"q68": true,
}

// hitHarness is a server over the TPC-DS scale-2 catalog with every hit
// shape's plan cached, and each shape as a DXL document and a SQL request.
type hitHarness struct {
	handler    http.Handler
	dxl, sqlJS [][]byte
}

func newHitHarness(tb testing.TB) *hitHarness {
	tb.Helper()
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 2})
	s, err := New(Config{Base: core.DefaultConfig(16), Provider: p})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	acc := md.NewAccessor(md.NewCache(&gpos.MemoryAccountant{}), p)
	h := &hitHarness{handler: s.Handler()}
	for _, q := range tpcds.Workload() {
		if !hitShapes[q.Name] {
			continue
		}
		bound, err := sql.Bind(q.SQL, acc, md.NewColumnFactory())
		if err != nil {
			tb.Fatalf("%s: bind: %v", q.Name, err)
		}
		js, _ := json.Marshal(optimizeRequest{SQL: q.SQL})
		h.dxl = append(h.dxl, []byte(dxl.SerializeQuery(bound).Render()))
		h.sqlJS = append(h.sqlJS, js)
	}
	if len(h.dxl) != len(hitShapes) {
		tb.Fatalf("found %d of the %d hit shapes in the workload", len(h.dxl), len(hitShapes))
	}
	// The first pass admits each plan; after it every request must hit.
	for pass := 0; pass < 2; pass++ {
		for i := range h.dxl {
			for _, r := range []struct {
				path string
				body []byte
			}{{"/optimize/dxl", h.dxl[i]}, {"/optimize", h.sqlJS[i]}} {
				rec := h.post(r.path, r.body)
				if rec.Code != http.StatusOK {
					tb.Fatalf("%s shape %d: status %d: %s", r.path, i, rec.Code, rec.Body)
				}
				if got := rec.Header().Get("X-Orca-Cache"); pass == 1 && got != "hit" {
					tb.Fatalf("%s shape %d: X-Orca-Cache %q after warm-up, want hit", r.path, i, got)
				}
			}
		}
	}
	return h
}

func (h *hitHarness) post(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// BenchmarkDXLHit and BenchmarkSQLHit time one cached request over the hit
// shapes, in-process through Handler(); run with -benchmem to compare the
// two front ends of the same plan-cache hit. The allocation counts of both
// are held exactly by the root package's TestAllocLedger.
func BenchmarkDXLHit(b *testing.B) {
	benchmarkHit(b, "/optimize/dxl", func(h *hitHarness) [][]byte { return h.dxl })
}

func BenchmarkSQLHit(b *testing.B) {
	benchmarkHit(b, "/optimize", func(h *hitHarness) [][]byte { return h.sqlJS })
}

func benchmarkHit(b *testing.B, path string, bodies func(*hitHarness) [][]byte) {
	h := newHitHarness(b)
	reqs := bodies(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.post(path, reqs[i%len(reqs)])
	}
}
