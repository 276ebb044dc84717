package memo

// Scalability microbenchmarks for the Memo's four hot paths (paper §6.2,
// Figure 7: near-linear speedup of optimization time with more cores depends
// on the shared search structure not serializing the workers):
//
//   - BenchmarkMemoInsertParallel   concurrent InsertExpr storm (duplicate
//     detection, content-addressed registry, group creation)
//   - BenchmarkMemoGroupLookup      Group(id)/NumGroups read storm
//   - BenchmarkMemoRuleLedger       applied-rule checks (rule-firing gate)
//   - BenchmarkMemoContextProbe     Figure-6 hash-table probes
//     (Context/LookupContext/AddCandidate/Candidates)
//
// Run the curve with: go test -run '^$' -bench 'BenchmarkMemo' -cpu=1,2,4,8
// -benchmem ./internal/memo/. cmd/benchmarks -experiment=memo -json emits the
// same measurements as BENCH_memo.json.

import (
	"sync/atomic"
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

// BenchmarkMemoInsertParallel is the concurrent InsertExpr storm: workers
// insert single-child expressions over a shared leaf — a rolling mix of
// fresh fingerprints (new groups in the content-addressed namespace) and
// duplicates of recently inserted ones (registry probes that must dedup).
func BenchmarkMemoInsertParallel(b *testing.B) {
	m := New(&gpos.MemoryAccountant{})
	leaf := benchLeaf(b, m, 0)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			// Two inserts per distinct fingerprint: every second call is a
			// duplicate probe of an already-registered subtree.
			k := n / 2
			if _, err := m.InsertExpr(&ops.Limit{Count: k}, []GroupID{leaf}, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemoInsertTarget is the same storm aimed at one target group —
// the transformation-result path (rule outputs landing in their source
// group), whose duplicate detection scans the group's own expressions.
func BenchmarkMemoInsertTarget(b *testing.B) {
	m := New(&gpos.MemoryAccountant{})
	leaf := benchLeaf(b, m, 0)
	ge, err := m.InsertExpr(&ops.Limit{Count: -1}, []GroupID{leaf}, -1)
	if err != nil {
		b.Fatal(err)
	}
	target := ge.Group().ID
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			// Bounded distinct set: most inserts are duplicate probes.
			k := n % 64
			if _, err := m.InsertExpr(&ops.Limit{Count: k}, []GroupID{leaf}, target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemoGroupLookup hammers the group index from parallel readers —
// the plan-extraction / job-spawn path that must not serialize on the Memo.
func BenchmarkMemoGroupLookup(b *testing.B) {
	m := New(&gpos.MemoryAccountant{})
	const groups = 1024
	for i := 0; i < groups; i++ {
		benchLeaf(b, m, i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g := m.Group(GroupID(i % groups))
			if g.NumExprs() == 0 {
				b.Fatal("empty group")
			}
			i++
			if i%64 == 0 {
				_ = m.NumGroups()
			}
		}
	})
}

// BenchmarkMemoRuleLedger measures the rule-firing gate: every exploration
// and implementation pass re-checks each (expression, rule) pair.
func BenchmarkMemoRuleLedger(b *testing.B) {
	m := New(&gpos.MemoryAccountant{})
	leaf := benchLeaf(b, m, 0)
	ge, err := m.InsertExpr(&ops.Limit{Count: 1}, []GroupID{leaf}, -1)
	if err != nil {
		b.Fatal(err)
	}
	rules := benchRuleLedgerKeys()
	ge.MarkApplied(rules[0])
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if ge.Applied(rules[i%len(rules)]) != (i%len(rules) == 0) {
				b.Fatal("ledger lied")
			}
			i++
		}
	})
}

// BenchmarkMemoContextProbe measures the Figure-6 hash-table hot path: the
// per-group request table (Context/LookupContext) and the per-expression
// local table (AddCandidate/Candidates) probed once per costing step.
func BenchmarkMemoContextProbe(b *testing.B) {
	m := New(&gpos.MemoryAccountant{})
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
	for _, r := range reqs {
		ctx, _ := g.Context(r)
		ge.AddCandidate(m.InternReq(r), Candidate{Cost: 10})
		ctx.Offer(ge, Candidate{Cost: 10})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := reqs[i%len(reqs)]
			if g.LookupContext(r) == nil {
				b.Fatal("context lost")
			}
			if len(ge.Candidates(r)) == 0 {
				b.Fatal("candidates lost")
			}
			i++
		}
	})
}
