package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"orca/internal/ampere"
	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/sql"
)

// maxBodyBytes bounds request bodies; queries and DXL documents are small,
// and an unbounded read is one more way for a storm to cost memory. A
// larger body is refused with 413, never truncated and parsed.
const maxBodyBytes = 4 << 20

// readBody reads the request body whole. A body with a Content-Length is
// read into a buffer of exactly that size (net/http ends the body there); a
// body without one is read through http.MaxBytesReader, which stops at
// maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *APIError) {
	if r.ContentLength > maxBodyBytes {
		return nil, bodyTooLarge()
	}
	var data []byte
	var err error
	if r.ContentLength >= 0 {
		data = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, data)
	} else {
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, bodyTooLarge()
		}
		return nil, badRequestError(http.StatusBadRequest, "reading body: "+err.Error())
	}
	return data, nil
}

func bodyTooLarge() *APIError {
	return badRequestError(http.StatusRequestEntityTooLarge, "request body exceeds 4 MiB")
}

// optimizeRequest is the body of POST /optimize.
type optimizeRequest struct {
	// SQL is the query text.
	SQL string `json:"sql"`
	// TimeoutMS shortens the per-request deadline below the server default
	// (it can never extend past it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// EmitDXL asks for the DXL plan message in the response alongside the
	// explain.
	EmitDXL bool `json:"emit_dxl,omitempty"`
}

// optimizeResponse is the success body of POST /optimize.
type optimizeResponse struct {
	Plan         string  `json:"plan,omitempty"`
	DXL          string  `json:"dxl,omitempty"`
	Cost         float64 `json:"cost"`
	Stage        string  `json:"stage"`
	Degraded     bool    `json:"degraded"`
	DegradedRung string  `json:"degraded_rung,omitempty"`
	Groups       int     `json:"groups"`
	GroupExprs   int     `json:"group_exprs"`
	RulesFired   int64   `json:"rules_fired"`
	DurationMS   int64   `json:"duration_ms"`
	MDRetries    int64   `json:"md_retries,omitempty"`
	BudgetFrac   float64 `json:"budget_frac"`
}

// bindFn produces the bound query for a request; the two endpoints differ
// only here (SQL text vs DXL query document).
type bindFn func(acc *md.Accessor, f *md.ColumnFactory) (*core.Query, error)

// handleOptimizeJSON is POST /optimize: SQL text in JSON, plan out as JSON.
func (s *Server) handleOptimizeJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeAPIError(w, badRequestError(http.StatusMethodNotAllowed, "use POST"))
		return
	}
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	var req optimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeAPIError(w, badRequestError(http.StatusBadRequest, "parsing JSON body: "+err.Error()))
		return
	}
	if req.SQL == "" {
		writeAPIError(w, badRequestError(http.StatusBadRequest, `missing "sql"`))
		return
	}
	bind := func(acc *md.Accessor, f *md.ColumnFactory) (*core.Query, error) {
		return sql.Bind(req.SQL, acc, f)
	}
	s.runOptimize(w, r, s.requestDeadline(req.TimeoutMS), bind, req.EmitDXL, false)
}

// handleOptimizeDXL is POST /optimize/dxl: a raw DXL query document in, the
// raw DXL plan message out (errors still come back as the JSON taxonomy).
// This is the paper's interface — DXL is what makes the optimizer callable
// from outside any particular database system (§3).
func (s *Server) handleOptimizeDXL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeAPIError(w, badRequestError(http.StatusMethodNotAllowed, "use POST"))
		return
	}
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	root, err := dxl.ParseXML(string(body))
	if err != nil {
		writeAPIError(w, badRequestError(http.StatusBadRequest, "parsing DXL: "+err.Error()))
		return
	}
	bind := func(acc *md.Accessor, f *md.ColumnFactory) (*core.Query, error) {
		return dxl.ParseQuery(root, acc, f)
	}
	s.runOptimize(w, r, s.requestDeadline(0), bind, true, true)
}

// requestDeadline resolves a client timeout hint against the server default:
// the client may shorten the deadline, never extend it.
func (s *Server) requestDeadline(timeoutMS int64) time.Duration {
	d := s.cfg.requestTimeout()
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; c < d {
			return c
		}
	}
	return d
}

// budgetFrac maps admission load to the budget-scaling fraction: full
// budgets below half load, then linear descent to the configured floor at
// full load. A busy server makes every request cheaper instead of letting
// the expensive ones monopolize it.
func budgetFrac(load, floor float64) float64 {
	if load <= 0.5 {
		return 1
	}
	if load >= 1 {
		return floor
	}
	return 1 - (load-0.5)/0.5*(1-floor)
}

// runOptimize is the hardened request lifecycle shared by both endpoints:
//
//	admit → deadline → derive budgets → bind → optimize (contained) → respond
//
// Every exit path goes through the error taxonomy; a panic anywhere in the
// bind/optimize phases produces a 500 with an AMPERe dump, not a dead
// process.
func (s *Server) runOptimize(w http.ResponseWriter, r *http.Request, timeout time.Duration, bind bindFn, emitDXL, rawDXL bool) {
	release, aerr := s.adm.admit(r.Context())
	if aerr != nil {
		writeAPIError(w, mapError(aerr, false))
		return
	}
	defer release()

	// Last-resort boundary for the serve glue outside optimizeContained
	// (fault injection before bind, plan serialization after): an admitted
	// request is always answered, never a dead connection.
	defer func() {
		if rec := recover(); rec != nil {
			ex := gpos.PanicException(gpos.CompServe, rec)
			s.vars.Panicked.Add(1)
			s.vars.Failed.Add(1)
			writeAPIError(w, panicError(ex))
		}
	}()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// serve/handler/slow armed as a delay simulates a stalled handler (the
	// request deadline and queue shedding must hold); armed as an error it
	// fails the request before any optimization work.
	if ferr := fault.Inject(fault.PointServeHandlerSlow); ferr != nil {
		s.vars.Failed.Add(1)
		writeAPIError(w, mapError(ferr, false))
		return
	}

	frac := budgetFrac(s.adm.load(), s.cfg.minBudgetFrac())
	cfg := s.cfg.Base.ScaleBudgets(frac)
	if s.cfg.DumpDir != "" {
		cfg.DumpCapture = ampere.DumpCapture(context.WithoutCancel(ctx), s.cfg.DumpDir, s.cfg.Provider)
	}

	acc := md.NewAccessor(s.cache, s.cfg.Provider)
	f := md.NewColumnFactory()
	// The bind phase does metadata lookups too; give it the same deadline,
	// lookup timeout and retry policy the optimizer will use.
	acc.BindContext(ctx)
	acc.SetLookupTimeout(cfg.MDLookupTimeout)
	acc.SetRetryPolicy(cfg.MDRetry)

	q, res, cacheState, bindPhase, err := s.optimizeContained(ctx, cfg, acc, f, bind)
	s.vars.Retried.Add(acc.LookupRetries())
	if err != nil {
		s.vars.Failed.Add(1)
		if ex := gpos.AsException(err); ex != nil && ex.Code == gpos.CodePanic {
			writeAPIError(w, panicError(ex))
			return
		}
		writeAPIError(w, mapError(err, bindPhase))
		return
	}

	if cacheState != "" {
		w.Header().Set("X-Orca-Cache", cacheState)
	}
	if res.Degraded {
		s.vars.Degraded.Add(1)
		w.Header().Set("X-Orca-Degraded", res.DegradedRung)
	}
	s.vars.Completed.Add(1)

	if rawDXL {
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		fmt.Fprintln(w, dxl.SerializePlan(res.Plan).Render())
		return
	}
	resp := optimizeResponse{
		Cost:         jsonCost(res.Cost),
		Stage:        res.Stage,
		Degraded:     res.Degraded,
		DegradedRung: res.DegradedRung,
		Groups:       res.Groups,
		GroupExprs:   res.GroupExprs,
		RulesFired:   res.RulesFired,
		DurationMS:   res.Duration.Milliseconds(),
		MDRetries:    acc.LookupRetries(),
		BudgetFrac:   frac,
	}
	resp.Plan = core.Explain(res.Plan, q.Factory)
	if emitDXL {
		resp.DXL = dxl.SerializePlan(res.Plan).Render()
	}
	writeJSON(w, http.StatusOK, resp)
}

// optimizeContained runs bind and optimize behind the per-request panic
// boundary. core.Optimize contains panics inside the optimization workflow
// already; this boundary additionally covers the bind phase and the serve
// glue, so nothing a single request does can take the process down.
// bindPhase reports whether a returned error came from binding (a client
// error) rather than optimization.
// cacheState is "hit"/"miss" when the plan cache is enabled (the value of
// the X-Orca-Cache response header), empty otherwise.
func (s *Server) optimizeContained(ctx context.Context, cfg core.Config, acc *md.Accessor, f *md.ColumnFactory, bind bindFn) (q *core.Query, res *core.Result, cacheState string, bindPhase bool, err error) {
	bindPhase = true
	defer func() {
		if rec := recover(); rec != nil {
			ex := gpos.PanicException(gpos.CompServe, rec)
			s.vars.Panicked.Add(1)
			if cfg.DumpCapture != nil && q != nil {
				cfg.DumpCapture(q, cfg, ex)
			}
			q, res, err = nil, nil, ex
		}
	}()
	q, err = bind(acc, f)
	if err != nil {
		return q, nil, "", true, err
	}
	bindPhase = false
	// serve/handler/panic sits after bind so a panic action exercises the
	// containment boundary with a query in hand for the AMPERe dump.
	if ferr := fault.Inject(fault.PointServeHandlerPanic); ferr != nil {
		return q, nil, "", false, ferr
	}
	res, cacheState, err = s.cachedOptimize(ctx, cfg, acc, q)
	return q, res, cacheState, false, err
}

// jsonCost maps non-finite costs to -1: the degradation ladder's minimal
// rung reports InfCost ("no estimate"), and JSON has no infinity — without
// this the 200 response body would fail to encode after the status line.
func jsonCost(c float64) float64 {
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return -1
	}
	return c
}

// badRequestError is the taxon of requests rejected before the lifecycle
// starts (wrong method, unreadable or unparsable body).
func badRequestError(status int, msg string) *APIError {
	return &APIError{
		Status:    status,
		Component: string(gpos.CompServe),
		Code:      CodeBadRequest,
		Message:   msg,
	}
}
