package serve

import (
	"context"

	"orca/internal/core"
	"orca/internal/md"
	"orca/internal/plancache"
	"orca/internal/props"
)

// Cache-state values reported in the X-Orca-Cache response header.
const (
	cacheHit  = "hit"
	cacheMiss = "miss"
)

// cachedOptimize wraps core.OptimizeContext with the parameterized plan
// cache (paper's "Query Optimization in the Wild" lineage: hot, repetitive
// traffic must not pay for search). The flow per request:
//
//	extract shape → probe cache → hit: rebind constants, skip the scheduler
//	                            → miss: singleflight the optimization, then
//	                              admit the parameterized plan
//
// state is "hit"/"miss" for the X-Orca-Cache header, or "" when the cache is
// disabled. A hit synthesizes a Result directly from the entry: Groups,
// GroupExprs, RulesFired and Duration stay zero, which is the honest
// accounting — no search happened.
func (s *Server) cachedOptimize(ctx context.Context, cfg core.Config, acc *md.Accessor, q *core.Query) (*core.Result, string, error) {
	if !s.plans.Enabled() {
		res, err := core.OptimizeContext(ctx, q, cfg)
		return res, "", err
	}
	shape, cacheable := plancache.Extract(q.Tree, q.Order, q.OutCols)
	if !cacheable {
		// Subqueries and other pointer-identity shapes cannot be
		// fingerprinted; they always pay for search.
		res, err := core.OptimizeContext(ctx, q, cfg)
		return res, cacheMiss, err
	}
	req, ok := s.plans.InternReq(props.Required{Dist: props.SingletonDist, Order: q.Order})
	if !ok {
		// The ReqID intern table is full: this required-property shape cannot
		// be keyed, so it pays for search (bounding the table is what keeps a
		// diverse ORDER BY stream from leaking memory past the byte budget).
		res, err := core.OptimizeContext(ctx, q, cfg)
		return res, cacheMiss, err
	}
	// The key stamps the metadata version observed after bind: a later bump
	// (DDL, stats refresh) changes the stamp and orphans this entry. Note the
	// stamp may already be newer than the one the bind phase started under;
	// admitPlan refuses such straddled plans (see MDVersionAtOpen).
	key := plancache.Key{
		FP:        shape.FP,
		Req:       req,
		Buckets:   shape.Buckets,
		MDVersion: acc.MDVersion(),
	}
	if e, ok := s.plans.Lookup(key, shape.Vector); ok {
		if res, ok := resultFromEntry(e, shape); ok {
			return res, cacheHit, nil
		}
	}
	// Miss: coalesce concurrent identical shapes so a storm of one hard
	// query optimizes once. The leader runs the real optimization and admits
	// the plan; waiters reuse its entry without touching the scheduler. A
	// flight that ended between this request's probe and its Do has already
	// admitted its plan: the leader picks that entry up (without counting a
	// second probe) and serves it as a waiter would, rather than search.
	var leaderRes *core.Result
	entry, err, leader := s.flight.Do(ctx, key, func() (*plancache.Entry, error) {
		if e, ok := s.plans.Peek(key, len(shape.Vector)); ok {
			return e, nil
		}
		r, oerr := core.OptimizeContext(ctx, q, cfg)
		if oerr != nil {
			return nil, oerr
		}
		leaderRes = r
		return s.admitPlan(key, shape, r, acc), nil
	})
	if leader && (leaderRes != nil || err != nil) {
		return leaderRes, cacheMiss, err
	}
	if err == nil && entry != nil {
		if res, ok := resultFromEntry(entry, shape); ok {
			// Served from the leader's flight or the leader's re-probe: no
			// search ran for this request either, so the header says hit
			// (the cache's own hit/miss counters recorded the probe miss
			// above).
			return res, cacheHit, nil
		}
	}
	// The leader failed (typed CodeLeaderFailed error or its own) or its
	// plan was uncacheable: fall back to an independent optimization rather
	// than failing this request for the leader's sins.
	res, err := core.OptimizeContext(ctx, q, cfg)
	return res, cacheMiss, err
}

// resultFromEntry rebinds the request's constants into a cached plan and
// synthesizes the optimization result a scheduler run would have produced.
func resultFromEntry(e *plancache.Entry, shape plancache.Shape) (*core.Result, bool) {
	plan, ok := plancache.Rebind(e.Plan, shape.Vector)
	if !ok {
		return nil, false
	}
	return &core.Result{Plan: plan, Cost: e.Cost, Stage: e.Stage}, true
}

// admitPlan parameterizes an optimization result and admits it, enforcing
// the never-cache rules documented in DESIGN.md §16: no degraded plans, no
// budget-aborted or timed-out stages (their plans reflect a truncated
// search, not the shape), and nothing when the metadata version moved
// anywhere between the accessor opening (before bind) and now — a bump
// mid-bind leaves a tree bound against old metadata, a bump mid-optimization
// a plan costed against it, and either would be served indefinitely under a
// stamp it does not deserve. Returns the admitted entry, or nil when the
// plan must not be cached — waiters then fall back to their own
// optimization.
func (s *Server) admitPlan(key plancache.Key, shape plancache.Shape, r *core.Result, acc *md.Accessor) *plancache.Entry {
	// The stamp is monotonic, so now == at-open proves the whole
	// bind→optimize window was bump-free (key.MDVersion was read in between,
	// so it matches too; the explicit check guards key construction drifting).
	if !admissible(r) || acc.MDVersion() != acc.MDVersionAtOpen() || acc.MDVersion() != key.MDVersion {
		return nil
	}
	plan, ok := plancache.Parameterize(r.Plan, shape.Vector)
	if !ok {
		return nil
	}
	e := &plancache.Entry{
		Plan:    plan,
		Cost:    r.Cost,
		Stage:   r.Stage,
		NParams: len(shape.Vector),
	}
	if !s.plans.Admit(key, e) {
		return nil
	}
	return e
}

// admissible reports whether a result represents a full, healthy
// optimization — the only kind worth serving to future requests.
func admissible(r *core.Result) bool {
	if r == nil || r.Plan == nil || r.Degraded || r.Failure != nil {
		return false
	}
	for _, sr := range r.StageRuns {
		if sr.TimedOut || sr.Aborted {
			return false
		}
	}
	return true
}
