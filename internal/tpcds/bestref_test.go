package tpcds

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"orca/internal/base"
	"orca/internal/core"
	"orca/internal/cost"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/props"
	"orca/internal/sql"
	"orca/internal/stats"
	"orca/internal/taqo"
)

// refPlan is the reference's answer for one (group, request): the plans
// the search may have kept as its best, and how many plans the search's
// plan space holds for the request.
type refPlan struct {
	req      props.Required
	outcomes []refOption // distinct; more than one only where plans tie
	count    float64
	busy     bool // on the recursion stack: reaching it again is a cycle
}

// refOption is one plan an alternative can give: what it delivers, its local
// cost and its total cost.
type refOption struct {
	delivered   props.Derived
	local, cost float64
}

// bestRef recomputes best(g, req) over a finished Memo by plain memoised
// recursion: the paper's Figure-6 definition of a group's best plan,
// computed from property values. It goes over every physical group
// expression (enforcers that can serve the request included), every
// alternative AppendChildReqs offers and each child's best. It keeps the
// alternatives whose derived properties satisfy the request, and costs them
// with the search's cost model, group statistics and skew. It runs no
// scheduler and reads no goal table or OptContext.
//
// Two things the definition leaves open are settled by what the search
// recorded, and checked against it:
//   - Ties. When plans tie for a child's best cost, the search keeps the one
//     it costed first, and a parent's cost and satisfaction depend on what
//     that one delivers. So a best is a set of outcomes: every plan that no
//     alternative which always satisfies the request beats, under any
//     choice among the children's outcomes. Without ties it is one plan.
//   - Late enforcers. An enforcer that one request inserts is costed under
//     every later request it can serve, and under none that came before. So
//     an enforcer is in a request's plan space when the search recorded it
//     there. A late enforcer that would beat the best is an error: the Memo
//     then holds a cheaper plan than the search found.
//
// Each expression in the plan space must have recorded, in its local table,
// exactly the alternatives the reference admits, in AppendChildReqs order,
// each with the child requests, costs and delivery of one of its options.
type bestRef struct {
	m     *memo.Memo
	model *cost.Model
	plans [][]*refPlan // by group, one per request seen
}

func newBestRef(m *memo.Memo, segments int) *bestRef {
	return &bestRef{
		m:     m,
		model: cost.NewModel(cost.DefaultParams(max(segments, 1))),
		plans: make([][]*refPlan, m.NumGroups()),
	}
}

// refAlt is one alternative of an expression under a request: its child
// requests and the plans it gives, one per choice among the children's
// outcomes that satisfies the request.
type refAlt struct {
	creqs   []props.Required
	options []refOption
	must    bool // every choice satisfies the request
	count   float64
}

func (r *bestRef) best(g memo.GroupID, req props.Required) (*refPlan, error) {
	for _, p := range r.plans[g] {
		if p.req.Equal(req) {
			if p.busy {
				return nil, fmt.Errorf("cycle through group %d under %s", g, req)
			}
			return p, nil
		}
	}
	p := &refPlan{req: req, busy: true}
	r.plans[g] = append(r.plans[g], p)
	var options, late []refOption
	bound := math.Inf(1)
	for _, ge := range r.m.Group(g).Exprs() {
		if _, ok := ge.Op.(ops.Physical); !ok || ge.IsEnforcer() && !memo.EnforcerUseful(ge.Op, req) {
			continue
		}
		alts, err := r.alternatives(ge, req)
		if err != nil {
			return nil, err
		}
		var recorded []memo.Candidate
		if id, ok := r.m.LookupReq(req); ok {
			recorded = ge.Candidates(id)
		}
		if ge.IsEnforcer() && len(recorded) == 0 {
			for _, a := range alts {
				late = append(late, a.options...)
			}
			continue
		}
		n, err := r.compare(ge, req, alts, recorded)
		if err != nil {
			return nil, err
		}
		p.count += n
		for _, a := range alts {
			options = append(options, a.options...)
			if a.must {
				worst := 0.0
				for _, o := range a.options {
					worst = max(worst, o.cost)
				}
				bound = min(bound, worst)
			}
		}
	}
	for _, o := range options {
		if o.cost <= bound && !slices.ContainsFunc(p.outcomes, o.equal) {
			p.outcomes = append(p.outcomes, o)
		}
	}
	for _, o := range late {
		if o.cost < bound {
			return nil, fmt.Errorf("group %d under %s: an enforcer inserted after the request was optimized gives cost %v, below the search's %v",
				g, req, o.cost, bound)
		}
	}
	p.busy = false
	return p, nil
}

// alternatives returns the alternatives of ge under req, in AppendChildReqs
// order, leaving out those that no choice of child plans lets satisfy req.
// An alternative that asks ge's own group for req itself is skipped, as the
// search's selfCycle does.
func (r *bestRef) alternatives(ge *memo.GroupExpr, req props.Required) ([]refAlt, error) {
	phys := ge.Op.(ops.Physical)
	g := ge.Group()
	gs := g.Stats()
	n := len(ge.Children)
	reqs := phys.AppendChildReqs(req, nil)
	count := 1
	if n > 0 {
		count = len(reqs) / n
	}
	rows := make([]float64, n)
	for i, c := range ge.Children {
		rows[i] = r.m.Group(c).Stats().Rows
	}
	children := make([]*refPlan, n)
	choice := make([]int, n)
	derived := make([]props.Derived, n)
	var out []refAlt
next:
	for a := 0; a < count; a++ {
		creqs := reqs[a*n : (a+1)*n]
		for i, creq := range creqs {
			if ge.Children[i] == g.ID && creq.Equal(req) {
				continue next
			}
		}
		alt := refAlt{creqs: creqs, must: true, count: 1}
		for i, creq := range creqs {
			cp, err := r.best(ge.Children[i], creq)
			if err != nil {
				return nil, err
			}
			if len(cp.outcomes) == 0 {
				continue next
			}
			children[i] = cp
			alt.count *= cp.count
		}
		// Every choice of one outcome per child, as an odometer.
		for {
			total := 0.0
			for i, c := range children {
				o := c.outcomes[choice[i]]
				derived[i] = o.delivered
				total += o.cost
			}
			if d := phys.Derive(derived); d.Satisfies(req) {
				local := r.model.LocalCost(ge.Op, cost.Inputs{
					OutRows: gs.Rows, ChildRows: rows, Delivered: d, Skew: refSkew(ge.Op, gs, d)})
				if o := (refOption{d, local, local + total}); !slices.ContainsFunc(alt.options, o.equal) {
					alt.options = append(alt.options, o)
				}
			} else {
				alt.must = false
			}
			i := n - 1
			for ; i >= 0; i-- {
				if choice[i]++; choice[i] < len(children[i].outcomes) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
		if len(alt.options) > 0 {
			out = append(out, alt)
		}
	}
	return out, nil
}

func (o refOption) equal(x refOption) bool {
	return o.delivered.Equal(x.delivered) && o.local == x.local && o.cost == x.cost
}

// compare holds ge's local-table entries for req to the reference's
// alternatives and returns the number of plans they hold.
func (r *bestRef) compare(ge *memo.GroupExpr, req props.Required, alts []refAlt, recorded []memo.Candidate) (float64, error) {
	where := func() string { return fmt.Sprintf("group %d, %s under %s", ge.Group().ID, ge, req) }
	count, k := 0.0, 0
	for _, a := range alts {
		if k == len(recorded) || !r.asks(recorded[k], a.creqs) {
			if a.must {
				return 0, fmt.Errorf("%s: alternative %v is not recorded", where(), a.creqs)
			}
			continue
		}
		c := recorded[k]
		if !slices.ContainsFunc(a.options, refOption{c.Delivered, c.LocalCost, c.Cost}.equal) {
			return 0, fmt.Errorf("%s: alternative %v recorded local %v, cost %v, delivering %s; the reference derives %v",
				where(), a.creqs, c.LocalCost, c.Cost, c.Delivered, a.options)
		}
		count += a.count
		k++
	}
	if k < len(recorded) {
		return 0, fmt.Errorf("%s: entry %d (child requests %v) is no satisfiable alternative", where(), k, recorded[k].ChildReqs)
	}
	return count, nil
}

// asks reports whether a recorded candidate asks its children for creqs.
func (r *bestRef) asks(c memo.Candidate, creqs []props.Required) bool {
	for i, id := range c.ChildReqs {
		if creq, _ := r.m.Req(id); !creq.Equal(creqs[i]) {
			return false
		}
	}
	return true
}

// refSkew is the search's skew multiplier: the histogram skew of the first
// hashing column of a Redistribute, or of a HashJoin's hashed output.
func refSkew(op ops.Operator, gs *stats.Stats, delivered props.Derived) float64 {
	var col base.ColID = -1
	switch o := op.(type) {
	case *ops.Redistribute:
		if len(o.Cols) > 0 {
			col = o.Cols[0]
		}
	case *ops.HashJoin:
		if delivered.Dist.Kind == props.DistHashed && len(delivered.Dist.Cols) > 0 {
			col = delivered.Dist.Cols[0]
		}
	}
	if col < 0 {
		return 1
	}
	if h := gs.Hist(col); h != nil {
		return h.SkewRatio()
	}
	return 1
}

// checkBestRef holds one finished search to the reference: the root's
// reference cost equals the cost the search returned, to 1e-9 relative, and
// the reference's plan count equals TAQO's, which reads the local tables.
func checkBestRef(t *testing.T, name string, res *core.Result, segments int) {
	t.Helper()
	p, err := newBestRef(res.Memo, segments).best(res.RootGroup, res.RootReq)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if !slices.ContainsFunc(p.outcomes, func(o refOption) bool { return math.Abs(o.cost-res.Cost) <= 1e-9*math.Abs(res.Cost) }) {
		t.Errorf("%s: the search returned cost %.9f; the reference's best %v", name, res.Cost, p.outcomes)
	}
	if n := taqo.NewSampler(res.Memo, res.RootGroup, res.RootReq).Count(); p.count != n {
		t.Errorf("%s: the reference counts %.0f plans, TAQO %.0f", name, p.count, n)
	}
}

// TestSearchFindsReferenceBest checks that an unbounded search returns the
// cheapest plan its Memo holds, and that its local tables record exactly
// the satisfying alternatives, on the 32 TPC-DS workload queries and the
// n = 3..6 join shapes of TestJoinEnumerationComplete. The pins show that a
// search changed; this shows that it is right.
func TestSearchFindsReferenceBest(t *testing.T) {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})
	const segments = 4
	optimize := func(name, text string) {
		q, err := sql.Bind(text, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		res, err := core.Optimize(q, core.DefaultConfig(segments))
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		checkBestRef(t, name, res, segments)
	}
	for _, wq := range Workload() {
		optimize(wq.Name, wq.SQL)
	}
	for _, shape := range []string{"chain", "star", "snowflake", "cycle"} {
		for n := 3; n <= 6; n++ {
			optimize(fmt.Sprintf("%s/%d", shape, n), joinShapeSQL(joinGraphs[shape][:n]))
		}
	}
}

// TestSearchFindsReferenceBestAcrossStages holds two-stage searches to the
// reference: a seed stage, then the full rule set over the same Memo. The
// second stage re-costs what the first costed, against children whose best
// plans it may have improved, so anything of the first stage's costing that
// leaks into the second shows up as an entry the reference cannot derive.
// Without reassociation the seed stage misses join orders, which the second
// stage adds as new groups and expressions; without hash joins it misses
// the cheapest plan of nearly every join group, which the second stage
// improves under the expressions the seed stage costed.
func TestSearchFindsReferenceBestAcrossStages(t *testing.T) {
	for _, seed := range [][]string{{"JoinCommutativity", "JoinAssociativity"}, {"Join2HashJoin"}} {
		t.Run("without "+strings.Join(seed, "+"), func(t *testing.T) {
			cfg := core.DefaultConfig(refSegments)
			cfg.Stages = []core.Stage{{Name: "seed", DisabledRules: seed}, {Name: "full"}}
			staged, single := referenceOptimizer(t, cfg), referenceOptimizer(t, core.DefaultConfig(refSegments))
			optimize := func(name, text string) {
				// The full stage explores the one-stage search's plan space, so
				// it must find its cost: a second stage that kept the first's
				// costings would not even reach the children it improves.
				if got, want := staged(name, text), single(name, text); got.Cost != want.Cost {
					t.Errorf("%s: the two-stage search costs %v, the one-stage search %v", name, got.Cost, want.Cost)
				}
			}
			for _, wq := range Workload() {
				if wq.Name == "q6" || wq.Name == "q25" {
					optimize(wq.Name, wq.SQL)
				}
			}
			for _, shape := range []string{"chain", "star", "snowflake", "cycle"} {
				for n := 3; n <= 6; n++ {
					optimize(fmt.Sprintf("%s/%d", shape, n), joinShapeSQL(joinGraphs[shape][:n]))
				}
			}
		})
	}
}

// refSegments is the cluster size the reference tests optimize for.
const refSegments = 4

// referenceOptimizer returns a function that binds and optimizes one query
// under cfg over the TPC-DS catalog, holds the search to the reference and
// returns its result.
func referenceOptimizer(t *testing.T, cfg core.Config) func(name, text string) *core.Result {
	p := md.NewMemProvider()
	BuildCatalog(p, Scale{Factor: 1})
	cache := md.NewCache(&gpos.MemoryAccountant{})
	return func(name, text string) *core.Result {
		t.Helper()
		q, err := sql.Bind(text, md.NewAccessor(cache, p), md.NewColumnFactory())
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		res, err := core.Optimize(q, cfg)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		checkBestRef(t, name, res, cfg.Segments)
		return res
	}
}

// joinShapeSQL is the query TestJoinEnumerationComplete optimizes for a
// join graph: the relations, every link predicate, and the first join
// column as output.
func joinShapeSQL(rels []joinRel) string {
	var from, where []string
	for _, r := range rels {
		from = append(from, r.table+" "+r.alias)
		for j := 0; j < len(rels); j++ {
			if pred, ok := r.links[j]; ok {
				where = append(where, pred)
			}
		}
	}
	return "SELECT " + strings.Fields(where[0])[0] + " FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND ")
}
