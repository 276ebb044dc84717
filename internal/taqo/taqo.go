// Package taqo implements TAQO (paper §6.2, ref [15] "Testing the Accuracy
// of Query Optimizers"): it measures the cost model's ability to order any
// two plans correctly — the plan with the higher estimated cost should
// indeed run longer. Plans are sampled uniformly from the optimizer's search
// space using the optimization-request linkage structure left in the Memo
// (the counting/unranking method of ref [29]), executed on the simulated
// cluster, and a weighted correlation score is computed between the
// estimated-cost ranking and the actual-cost ranking.
package taqo

import (
	"fmt"
	"math"
	"sort"

	"orca/internal/datagen"
	"orca/internal/engine"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
)

// Sampler draws uniform plans from an optimized Memo, walking its requests
// as the Memo's interned ids.
type Sampler struct {
	m      *memo.Memo
	root   memo.GroupID
	req    memo.ReqID // -1: the Memo never saw the root request
	counts map[ctxKey]float64
}

type ctxKey struct {
	group memo.GroupID
	req   memo.ReqID
}

// NewSampler prepares plan counting over the Memo produced by an
// optimization session.
func NewSampler(m *memo.Memo, root memo.GroupID, req props.Required) *Sampler {
	id, ok := m.LookupReq(req)
	if !ok {
		id = -1
	}
	return &Sampler{m: m, root: root, req: id, counts: map[ctxKey]float64{}}
}

// Count returns the number of distinct plans in the optimized search space
// for the root request.
func (s *Sampler) Count() float64 { return s.count(s.root, s.req) }

func (s *Sampler) count(g memo.GroupID, req memo.ReqID) float64 {
	k := ctxKey{g, req}
	if c, ok := s.counts[k]; ok {
		return c
	}
	// Mark in-progress to cut (impossible, but safe) cycles.
	s.counts[k] = 0
	total := 0.0
	grp := s.m.Group(g)
	for _, ge := range grp.Exprs() {
		for _, cand := range ge.Candidates(req) {
			n := 1.0
			for i, id := range cand.ChildReqs {
				n *= s.count(ge.Children[i], id)
			}
			total += n
		}
	}
	s.counts[k] = total
	return total
}

// Sample unranks the r-th plan (r in [0, Count())) into an executable
// expression tree together with its estimated cost.
func (s *Sampler) Sample(r float64) (*ops.Expr, float64, error) {
	return s.sample(s.root, s.req, r)
}

func (s *Sampler) sample(g memo.GroupID, req memo.ReqID, r float64) (*ops.Expr, float64, error) {
	grp := s.m.Group(g)
	for _, ge := range grp.Exprs() {
		for _, cand := range ge.Candidates(req) {
			n := 1.0
			childCounts := make([]float64, len(cand.ChildReqs))
			for i, id := range cand.ChildReqs {
				childCounts[i] = s.count(ge.Children[i], id)
				n *= childCounts[i]
			}
			if r >= n {
				r -= n
				continue
			}
			// Unrank r within this candidate (mixed radix).
			children := make([]*ops.Expr, len(cand.ChildReqs))
			cost := cand.LocalCost
			for i := len(cand.ChildReqs) - 1; i >= 0; i-- {
				idx := math.Mod(r, childCounts[i])
				r = math.Floor(r / childCounts[i])
				c, ccost, err := s.sample(ge.Children[i], cand.ChildReqs[i], idx)
				if err != nil {
					return nil, 0, err
				}
				children[i] = c
				cost += ccost
			}
			phys := cand.Delivered
			return &ops.Expr{
				Op:       ge.Op,
				Children: children,
				Phys:     &phys,
				Cost:     cost,
				Rows:     grp.Rows(),
			}, cost, nil
		}
	}
	creq, _ := s.m.Req(req)
	return nil, 0, fmt.Errorf("taqo: rank out of range for group %d under %s", g, creq)
}

// ---------------------------------------------------------------------------
// Scoring

// PlanRun is one sampled plan's estimated and measured cost.
type PlanRun struct {
	Plan     *ops.Expr
	EstCost  float64
	Actual   float64 // engine work units
	TimedOut bool
}

// Score is the TAQO accuracy result.
type Score struct {
	// Correlation is the weighted pair-ordering agreement in [-1, 1]; 1
	// means the cost model orders every significant pair correctly.
	Correlation float64
	// Sampled is the number of executed plans.
	Sampled int
	// SpaceSize is the plan-space size counted from the Memo.
	SpaceSize float64
	Runs      []PlanRun
}

// Options tune the evaluation.
type Options struct {
	// Samples is the number of plans to draw (deduplicated).
	Samples int
	// Epsilon is the relative actual-cost difference below which a pair is
	// "too close to care" and excluded from scoring (ref [15]: the score
	// "does not penalize ... small differences").
	Epsilon float64
	// Budget caps each plan execution (work units); blown budgets record a
	// timed-out actual cost at the cap.
	Budget int64
	Seed   uint64
}

// Evaluate samples plans from an optimized Memo, executes them on the
// cluster, and scores the cost model.
func Evaluate(m *memo.Memo, root memo.GroupID, req props.Required, cluster *engine.Cluster, opt Options) (*Score, error) {
	if opt.Samples <= 0 {
		opt.Samples = 16
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.05
	}
	if opt.Budget <= 0 {
		opt.Budget = 50_000_000
	}
	s := NewSampler(m, root, req)
	total := s.Count()
	if total < 1 {
		return nil, fmt.Errorf("taqo: empty plan space")
	}

	rng := datagen.NewRNG(opt.Seed ^ 0xA5A5)
	seen := map[string]bool{}
	var runs []PlanRun
	attempts := 0
	for len(runs) < opt.Samples && attempts < opt.Samples*4 {
		attempts++
		r := math.Floor(rng.Float() * total)
		if r >= total {
			r = total - 1
		}
		plan, est, err := s.Sample(r)
		if err != nil {
			return nil, err
		}
		fp := plan.String()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		res, err := cluster.Execute(plan, engine.Options{Budget: opt.Budget})
		if err != nil {
			return nil, fmt.Errorf("taqo: executing sampled plan: %w", err)
		}
		actual := float64(res.Stats.Work(3))
		if res.TimedOut {
			actual = float64(opt.Budget)
		}
		runs = append(runs, PlanRun{Plan: plan, EstCost: est, Actual: actual, TimedOut: res.TimedOut})
	}
	if len(runs) < 2 {
		return &Score{Correlation: 1, Sampled: len(runs), SpaceSize: total, Runs: runs}, nil
	}
	return &Score{
		Correlation: correlation(runs, opt.Epsilon),
		Sampled:     len(runs),
		SpaceSize:   total,
		Runs:        runs,
	}, nil
}

// correlation computes the importance-weighted pair agreement: pairs whose
// actual costs differ by less than epsilon (relatively) are skipped; each
// remaining pair is weighted by the importance of its better plan (good
// plans matter more — the score "penalizes optimizer more for cost
// miss-estimation of very good plans").
func correlation(runs []PlanRun, epsilon float64) float64 {
	// Rank plans by actual cost for importance weights.
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return runs[idx[a]].Actual < runs[idx[b]].Actual })
	rank := make([]int, len(runs))
	for pos, i := range idx {
		rank[i] = pos + 1
	}

	var agree, total float64
	for i := 0; i < len(runs); i++ {
		for j := i + 1; j < len(runs); j++ {
			ai, aj := runs[i].Actual, runs[j].Actual
			if math.Max(ai, aj) <= 0 {
				continue
			}
			if math.Abs(ai-aj)/math.Max(ai, aj) < epsilon {
				continue
			}
			better := rank[i]
			if rank[j] < better {
				better = rank[j]
			}
			w := 1 / float64(better)
			total += w
			ei, ej := runs[i].EstCost, runs[j].EstCost
			if (ei < ej) == (ai < aj) {
				agree += w
			} else {
				agree -= w
			}
		}
	}
	if total == 0 {
		return 1
	}
	return agree / total
}
