package memo

// Microbenchmarks for the Memo's hot paths:
//
//   - BenchmarkMemoInsertTarget     InsertExpr into one target group
//     (transformation results and their duplicate detection)
//   - BenchmarkMemoGroupLookup      Group(id)/NumGroups reads
//   - BenchmarkMemoRuleLedger       applied-rule checks (rule-firing gate)
//   - BenchmarkMemoContextProbe     Figure-6 hash-table probes
//     (LookupContext/Candidates)
//
// Run with: go test -run '^$' -bench 'BenchmarkMemo' -benchmem ./internal/memo/.

import (
	"testing"

	"orca/internal/gpos"
	"orca/internal/ops"
	"orca/internal/props"
)

// benchRuleLedgerKeys returns the applied-ledger keys the ledger benchmark
// cycles through — a set the size of the real rule registry (dense rule IDs
// as assigned by xform.RuleIDFor).
func benchRuleLedgerKeys() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i
	}
	return out
}

// benchLeaf inserts one arity-0 leaf expression and returns its group.
func benchLeaf(b *testing.B, m *Memo, id int) GroupID {
	b.Helper()
	ge, err := m.InsertExpr(&ops.CTEConsumer{ID: id}, nil, -1)
	if err != nil {
		b.Fatal(err)
	}
	return ge.Group().ID
}

// BenchmarkMemoInsertTarget inserts into one target group — the
// transformation-result path (rule outputs landing in their source group),
// whose duplicate detection scans the group's own expressions.
func BenchmarkMemoInsertTarget(b *testing.B) {
	m := New(&gpos.OwnedAccountant{})
	leaf := benchLeaf(b, m, 0)
	ge, err := m.InsertExpr(&ops.Limit{Count: -1}, []GroupID{leaf}, -1)
	if err != nil {
		b.Fatal(err)
	}
	target := ge.Group().ID
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Bounded distinct set: most inserts are duplicate probes.
		k := int64(n % 64)
		if _, err := m.InsertExpr(&ops.Limit{Count: k}, []GroupID{leaf}, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoGroupLookup reads the group index — the plan-extraction and
// job-spawn path.
func BenchmarkMemoGroupLookup(b *testing.B) {
	m := New(&gpos.OwnedAccountant{})
	const groups = 1024
	for i := 0; i < groups; i++ {
		benchLeaf(b, m, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := m.Group(GroupID(i % groups))
		if g.NumExprs() == 0 {
			b.Fatal("empty group")
		}
		if i%64 == 0 {
			_ = m.NumGroups()
		}
	}
}

// BenchmarkMemoRuleLedger measures the rule-firing gate: every exploration
// and implementation pass re-checks each (expression, rule) pair.
func BenchmarkMemoRuleLedger(b *testing.B) {
	m := New(&gpos.OwnedAccountant{})
	leaf := benchLeaf(b, m, 0)
	ge, err := m.InsertExpr(&ops.Limit{Count: 1}, []GroupID{leaf}, -1)
	if err != nil {
		b.Fatal(err)
	}
	rules := benchRuleLedgerKeys()
	ge.MarkApplied(rules[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ge.Applied(rules[i%len(rules)]) != (i%len(rules) == 0) {
			b.Fatal("ledger lied")
		}
	}
}

// BenchmarkMemoContextProbe measures the Figure-6 hash-table hot path: the
// per-group request table (Context/LookupContext) and the per-expression
// local table (AddCandidate/Candidates) probed once per costing step.
func BenchmarkMemoContextProbe(b *testing.B) {
	m := New(&gpos.OwnedAccountant{})
	leaf := benchLeaf(b, m, 0)
	ge, err := m.InsertExpr(&ops.Limit{Count: 1}, []GroupID{leaf}, -1)
	if err != nil {
		b.Fatal(err)
	}
	g := ge.Group()
	reqs := []props.Required{
		{Dist: props.SingletonDist},
		{Dist: props.AnyDist},
		{Dist: props.SingletonDist, Order: props.MakeOrder(1)},
		{Dist: props.ReplicatedDist, Rewindable: true},
	}
	ids := make([]ReqID, len(reqs))
	for i, r := range reqs {
		ctx, _ := g.Context(m.InternReq(r))
		ids[i] = m.InternReq(r)
		ctx.Offer(ge, ge.AddCandidate(ids[i], 0, Candidate{ChildReqs: []ReqID{ids[i]}, Cost: 10}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.LookupContext(reqs[i%len(reqs)]) == nil {
			b.Fatal("context lost")
		}
		if len(ge.Candidates(ids[i%len(ids)])) == 0 {
			b.Fatal("candidates lost")
		}
	}
}
