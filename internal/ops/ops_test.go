package ops

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"testing/quick"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/props"
)

// randScalar generates small random scalar trees for equality/hash checks.
func randScalar(r *rand.Rand, depth int) ScalarExpr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return NewIdent(base.ColID(r.Intn(6)), base.TInt)
		}
		return NewConst(base.NewInt(int64(r.Intn(5))))
	}
	switch r.Intn(5) {
	case 0:
		return NewCmp(CmpOp(r.Intn(6)), randScalar(r, depth-1), randScalar(r, depth-1))
	case 1:
		return And(randScalar(r, depth-1), randScalar(r, depth-1))
	case 2:
		return Or(randScalar(r, depth-1), randScalar(r, depth-1))
	case 3:
		return &BinOp{Op: "+", L: randScalar(r, depth-1), R: randScalar(r, depth-1)}
	default:
		return &IsNull{Arg: randScalar(r, depth-1)}
	}
}

// TestScalarHashEqualConsistency: structurally equal scalars hash equally.
func TestScalarHashEqualConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a := randScalar(r1, 3)
		b := randScalar(r2, 3)
		if !a.Equal(b) {
			return false // identical seeds must build identical trees
		}
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAndFlattening(t *testing.T) {
	p1 := Eq(NewIdent(1, base.TInt), NewConst(base.NewInt(1)))
	p2 := Eq(NewIdent(2, base.TInt), NewConst(base.NewInt(2)))
	p3 := Eq(NewIdent(3, base.TInt), NewConst(base.NewInt(3)))
	nested := And(And(p1, p2), p3)
	if got := len(Conjuncts(nested)); got != 3 {
		t.Errorf("flattened conjuncts = %d, want 3", got)
	}
	if And() != nil {
		t.Error("empty And must be nil (TRUE)")
	}
	if And(p1) != p1 {
		t.Error("single-arg And must be identity")
	}
	if And(nil, p1, nil) != p1 {
		t.Error("nil args must be dropped")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) must be nil")
	}
}

func TestCmpCommuted(t *testing.T) {
	pairs := map[CmpOp]CmpOp{
		CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe,
		CmpEq: CmpEq, CmpNe: CmpNe,
	}
	for op, want := range pairs {
		if op.Commuted() != want {
			t.Errorf("%s.Commuted() = %s, want %s", op, op.Commuted(), want)
		}
	}
}

func TestEquiKeys(t *testing.T) {
	left := base.MakeColSet(1, 2)
	right := base.MakeColSet(10, 11)
	pred := And(
		Eq(NewIdent(1, base.TInt), NewIdent(10, base.TInt)),            // keyed
		Eq(NewIdent(11, base.TInt), NewIdent(2, base.TInt)),            // keyed, reversed sides
		NewCmp(CmpLt, NewIdent(2, base.TInt), NewIdent(11, base.TInt)), // non-equi
		Eq(NewIdent(1, base.TInt), NewIdent(2, base.TInt)),             // same side
	)
	lk, rk, residual := EquiKeys(pred, left, right)
	if len(lk) != 2 || len(rk) != 2 {
		t.Fatalf("keys: %v = %v", lk, rk)
	}
	if lk[0] != 1 || rk[0] != 10 || lk[1] != 2 || rk[1] != 11 {
		t.Errorf("key pairs wrong: %v = %v", lk, rk)
	}
	if len(residual) != 2 {
		t.Errorf("residual = %d, want 2", len(residual))
	}
}

func TestReplaceCols(t *testing.T) {
	in := And(
		Eq(NewIdent(1, base.TInt), NewConst(base.NewInt(5))),
		&InList{Arg: NewIdent(2, base.TInt), Vals: []ScalarExpr{NewConst(base.NewInt(1))}},
	)
	out := ReplaceCols(in, map[base.ColID]base.ColID{1: 100, 2: 200})
	want := base.MakeColSet(100, 200)
	if !out.Cols().Equal(want) {
		t.Errorf("ReplaceCols cols = %s, want %s", out.Cols(), want)
	}
	// Original untouched.
	if !in.Cols().Equal(base.MakeColSet(1, 2)) {
		t.Error("ReplaceCols mutated its input")
	}
}

// ---------------------------------------------------------------------------
// Logical properties on trees

func miniRel(name string, n int) (*md.Relation, []*md.ColRef) {
	p := md.NewMemProvider()
	cols := make([]md.ColSpec, n)
	for i := range cols {
		cols[i] = md.ColSpec{Name: string(rune('a' + i)), Type: base.TInt, NDV: 10, Lo: 0, Hi: 10}
	}
	rel := md.Build(p, md.TableSpec{Name: name, Rows: 10, Policy: md.DistHash, DistCols: []int{0}, Cols: cols})
	f := md.NewColumnFactory()
	refs := make([]*md.ColRef, n)
	for i := range refs {
		refs[i] = f.NewTableColumn(rel.Columns[i].Name, base.TInt, rel.Mdid, i)
	}
	return rel, refs
}

func TestOutputColsAndFreeCols(t *testing.T) {
	relA, aCols := miniRel("a", 2)
	get := NewExpr(&Get{Alias: "a", Rel: relA, Cols: aCols})
	sel := NewExpr(&Select{Pred: Eq(NewIdent(aCols[0].ID, base.TInt), NewConst(base.NewInt(1)))}, get)
	if !OutputColsOf(sel).Equal(base.MakeColSet(aCols[0].ID, aCols[1].ID)) {
		t.Error("select must pass through output columns")
	}
	if !FreeCols(sel).Empty() {
		t.Errorf("uncorrelated tree has free cols %s", FreeCols(sel))
	}

	// Correlated: predicate references a column never produced below.
	corr := NewExpr(&Select{Pred: Eq(NewIdent(aCols[0].ID, base.TInt), NewIdent(999, base.TInt))}, get)
	if !FreeCols(corr).Equal(base.MakeColSet(999)) {
		t.Errorf("free cols = %s, want {999}", FreeCols(corr))
	}

	// Semi join outputs only the outer side.
	relB, bCols := miniRel("b", 1)
	getB := NewExpr(&Get{Alias: "b", Rel: relB, Cols: bCols})
	semi := NewExpr(&Join{Type: SemiJoin, Pred: Eq(NewIdent(aCols[0].ID, base.TInt), NewIdent(bCols[0].ID, base.TInt))}, get, getB)
	if !OutputColsOf(semi).Equal(base.MakeColSet(aCols[0].ID, aCols[1].ID)) {
		t.Errorf("semi join output = %s", OutputColsOf(semi))
	}
}

// ---------------------------------------------------------------------------
// Physical property plumbing

func TestScanDerive(t *testing.T) {
	rel, cols := miniRel("t", 2)
	scan := &Scan{Rel: rel, Cols: cols}
	d := scan.Derive(nil)
	if d.Dist.Kind != props.DistHashed || d.Dist.Cols[0] != cols[0].ID {
		t.Errorf("scan dist = %s", d.Dist)
	}
	if !d.Rewindable {
		t.Error("scans are rewindable")
	}
}

func TestHashJoinAlternatives(t *testing.T) {
	j := &HashJoin{Type: InnerJoin, LeftKeys: []base.ColID{1}, RightKeys: []base.ColID{2}}
	// Two requests, outer then inner, per alternative.
	reqs := j.AppendChildReqs(props.Required{Dist: props.SingletonDist}, nil)
	if len(reqs) != 2*4 {
		t.Fatalf("inner hash join alternatives = %d, want 4 (co-locate, bcast-inner, bcast-outer, gather)", len(reqs)/2)
	}
	// Alternative 1: co-location on keys (duplicate-tolerant).
	if reqs[0].Dist.Kind != props.DistHashed || !reqs[0].Dist.AllowReplicated {
		t.Errorf("co-locate alt wrong: %v", reqs[:2])
	}
	// Outer joins must not broadcast the preserved side.
	lj := &HashJoin{Type: LeftJoin, LeftKeys: []base.ColID{1}, RightKeys: []base.ColID{2}}
	reqs = lj.AppendChildReqs(props.Required{}, nil)
	for a := 0; a < len(reqs); a += 2 {
		if reqs[a].Dist.Kind == props.DistReplicated {
			t.Error("left join offered broadcast of the row-preserving side")
		}
	}
}

func TestNLJoinPreservesOuterOrder(t *testing.T) {
	j := &NLJoin{Type: InnerJoin}
	req := props.Required{Order: props.MakeOrder(1)}
	reqs := j.AppendChildReqs(req, nil)
	if !reqs[0].Order.Equal(props.MakeOrder(1)) {
		t.Error("NLJoin must pass the order requirement to the outer child")
	}
	if !reqs[1].Rewindable {
		t.Error("NLJoin inner side must be rewindable")
	}
	d := j.Derive([]props.Derived{
		{Dist: props.Hashed(1), Order: props.MakeOrder(1)},
		{Dist: props.ReplicatedDist, Rewindable: true},
	})
	if !d.Order.Equal(props.MakeOrder(1)) {
		t.Error("NLJoin must deliver the outer order")
	}
	if !d.Dist.Equal(props.Hashed(1)) {
		t.Errorf("broadcast-inner join dist = %s, want outer's", d.Dist)
	}
}

func TestEnforcerContracts(t *testing.T) {
	req := props.Required{Dist: props.SingletonDist, Order: props.MakeOrder(3)}

	sort := &Sort{Order: props.MakeOrder(3)}
	if got := sort.AppendChildReqs(req, nil)[0]; !got.Order.IsAny() || !got.Dist.Equal(props.SingletonDist) {
		t.Errorf("Sort child req = %s", got)
	}
	d := sort.Derive([]props.Derived{{Dist: props.Hashed(1)}})
	if !d.Order.Equal(props.MakeOrder(3)) || !d.Rewindable {
		t.Errorf("Sort derive = %v", d)
	}

	gm := &GatherMerge{Order: props.MakeOrder(3)}
	if got := gm.AppendChildReqs(req, nil)[0]; !got.Order.Equal(props.MakeOrder(3)) {
		t.Error("GatherMerge must require the order from its child")
	}
	if d := gm.Derive(nil); d.Dist.Kind != props.DistSingleton || !d.Order.Equal(props.MakeOrder(3)) {
		t.Errorf("GatherMerge derive = %v", d)
	}

	if d := (&Gather{}).Derive(nil); d.Dist.Kind != props.DistSingleton || !d.Order.IsAny() {
		t.Error("Gather must deliver singleton with no order")
	}
	if d := (&Redistribute{Cols: []base.ColID{5}}).Derive(nil); !d.Dist.Equal(props.Hashed(5)) {
		t.Error("Redistribute derive wrong")
	}
	if d := (&Broadcast{}).Derive(nil); d.Dist.Kind != props.DistReplicated {
		t.Error("Broadcast derive wrong")
	}
	sp := &Spool{}
	in := props.Derived{Dist: props.Hashed(2), Order: props.MakeOrder(2)}
	if d := sp.Derive([]props.Derived{in}); !d.Rewindable || !d.Dist.Equal(in.Dist) || !d.Order.Equal(in.Order) {
		t.Error("Spool must add rewindability and preserve the rest")
	}
}

func TestComputeScalarTranslation(t *testing.T) {
	f := md.NewColumnFactory()
	in := f.NewComputedColumn("in", base.TInt)
	outPass := f.NewComputedColumn("pass", base.TInt)
	outComp := f.NewComputedColumn("comp", base.TInt)
	cs := NewComputeScalar([]ProjElem{
		{Col: outPass, Expr: NewIdent(in.ID, base.TInt)},
		{Col: outComp, Expr: &BinOp{Op: "+", L: NewIdent(in.ID, base.TInt), R: NewConst(base.NewInt(1))}},
	})
	// Requirement on the aliased column translates to the input column.
	req := props.Required{Dist: props.Hashed(outPass.ID), Order: props.MakeOrder(outPass.ID)}
	creq := cs.AppendChildReqs(req, nil)[0]
	if !creq.Dist.Equal(props.Hashed(in.ID)) || !creq.Order.Equal(props.MakeOrder(in.ID)) {
		t.Errorf("pass-through translation failed: %s", creq)
	}
	// Requirement on the computed column cannot be pushed.
	req2 := props.Required{Dist: props.Hashed(outComp.ID)}
	creq2 := cs.AppendChildReqs(req2, nil)[0]
	if !creq2.Dist.IsAny() {
		t.Errorf("computed-column requirement leaked to child: %s", creq2)
	}
	// Derived props translate back through the projection.
	d := cs.Derive([]props.Derived{{Dist: props.Hashed(in.ID), Order: props.MakeOrder(in.ID)}})
	if !d.Dist.Equal(props.Hashed(outPass.ID)) || !d.Order.Equal(props.MakeOrder(outPass.ID)) {
		t.Errorf("derive translation failed: %v", d)
	}
}

func TestAggChildReqAlternatives(t *testing.T) {
	f := md.NewColumnFactory()
	cnt := f.NewComputedColumn("cnt", base.TInt)
	agg := &HashAgg{Mode: AggSingle, GroupCols: []base.ColID{1, 2},
		Aggs: []AggElem{{Col: cnt, Agg: &AggFunc{Name: "count"}}}}
	// One request per alternative: full grouping columns, each single
	// column, singleton.
	alts := agg.AppendChildReqs(props.Required{}, nil)
	if len(alts) != 4 {
		t.Fatalf("hash agg alternatives = %d, want 4", len(alts))
	}
	for _, alt := range alts {
		d := alt.Dist
		if d.Kind == props.DistHashed && d.AllowReplicated {
			t.Error("grouped aggregate must not tolerate replicated input (duplicates)")
		}
	}
	local := &HashAgg{Mode: AggLocal, GroupCols: []base.ColID{1}}
	if got := local.AppendChildReqs(props.Required{}, nil); len(got) != 1 || !got[0].Dist.IsAny() {
		t.Error("local aggregate must accept any distribution")
	}
}

// arity is the number of children an expression of p has in these tests.
func arity(p Physical) int {
	if u, ok := p.(*PhysicalUnionAll); ok {
		return len(u.InCols)
	}
	return p.Arity()
}

// TestAppendChildReqsSound holds every physical operator declared in defs/
// to the child-request hook's contract: the appended requests are whole
// alternatives (a multiple of the arity, none for a leaf), appended after
// what dst already holds; a RequestInvariant operator appends the same
// requests whatever the incoming request, which the per-expression cache of
// interned ids (memo.GroupExpr.ChildReqs) relies on; and a RequestOnly
// operator appends the same requests as a twin that differs from it in
// every field, under every request, which the Memo's per-(kind, request)
// cache relies on.
func TestAppendChildReqsSound(t *testing.T) {
	rel, cols := miniRel("t", 2)
	keys := []base.ColID{cols[0].ID}
	physical := []Physical{
		&Scan{Rel: rel, Cols: cols},
		&IndexScan{Rel: rel, Cols: cols},
		&Filter{},
		NewComputeScalar([]ProjElem{{Col: cols[1], Expr: NewIdent(cols[0].ID, base.TInt)}}),
		&HashJoin{Type: InnerJoin, LeftKeys: keys, RightKeys: keys},
		&HashJoin{Type: LeftJoin, LeftKeys: keys, RightKeys: keys},
		&HashJoin{Type: InnerJoin},
		&NLJoin{Type: InnerJoin},
		&HashAgg{Mode: AggLocal, GroupCols: keys},
		&HashAgg{Mode: AggGlobal, GroupCols: []base.ColID{1, 2}},
		&StreamAgg{GroupCols: keys},
		&ScalarAgg{Mode: AggLocal},
		&ScalarAgg{Mode: AggSingle},
		&PhysicalLimit{Order: props.MakeOrder(1)},
		&PhysicalUnionAll{InCols: [][]base.ColID{{1}, {2}, {3}}},
		&Sequence{},
		&PhysicalCTEProducer{},
		&PhysicalCTEConsumer{},
		&PhysicalWindow{},
		&PhysicalWindow{PartitionCols: []base.ColID{1, 2}},
		&SubPlanFilter{},
		&SubPlanProject{},
		&Sort{Order: props.MakeOrder(1)},
		&Gather{},
		&GatherMerge{Order: props.MakeOrder(1)},
		&Redistribute{Cols: keys},
		&Broadcast{},
		&Spool{},
	}
	covered := map[string]bool{}
	for _, p := range physical {
		covered[reflect.TypeOf(p).Elem().Name()] = true
	}
	for _, file := range []string{"ops_physical.opt", "ops_enforcers.opt"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "defs", file))
		if err != nil {
			t.Fatal(err)
		}
		defs := regexp.MustCompile(`(?m)^\[[^]]*\] define (\w+) `).FindAllStringSubmatch(string(src), -1)
		if len(defs) == 0 {
			t.Errorf("%s declares no operator this test can find", file)
		}
		for _, m := range defs {
			if !covered[m[1]] {
				t.Errorf("%s declares %s, which this test does not cover", file, m[1])
			}
		}
	}
	reqs := []props.Required{
		{Dist: props.AnyDist},
		{Dist: props.AnyDist, Order: props.MakeOrder(1)},
		{Dist: props.SingletonDist},
		{Dist: props.AnyDist, Rewindable: true},
		{Dist: props.Hashed(1), Order: props.MakeOrder(2, 1)},
		{Dist: props.SingletonDist, Order: props.MakeOrder(1), Rewindable: true},
	}
	twins := map[string]Physical{
		"NLJoin":   &NLJoin{Type: LeftJoin, Pred: Eq(NewIdent(1, base.TInt), NewIdent(2, base.TInt))},
		"Filter":   &Filter{Pred: Eq(NewIdent(1, base.TInt), NewConst(base.NewInt(3)))},
		"Sort":     &Sort{Order: props.MakeOrder(2)},
		"Spool":    &Spool{},
		"Sequence": &Sequence{},
	}
	kinds := map[int]string{}
	for _, p := range physical {
		ro, ok := p.(RequestOnly)
		if !ok {
			continue
		}
		typ := reflect.TypeOf(p).Elem()
		name := typ.Name()
		if _, invariant := p.(RequestInvariant); invariant {
			t.Errorf("%s is both RequestOnly and RequestInvariant", name)
		}
		k := ro.RequestOnlyKind()
		if k < 0 || k >= NumRequestOnlyKinds || kinds[k] != "" && kinds[k] != name {
			t.Errorf("%s has request-only kind %d, out of range or taken by %s", name, k, kinds[k])
		}
		kinds[k] = name
		twin := twins[name]
		if twin == nil {
			t.Errorf("%s is RequestOnly but has no twin in this test", name)
			continue
		}
		a, b := reflect.ValueOf(p).Elem(), reflect.ValueOf(twin).Elem()
		for f := 0; f < typ.NumField(); f++ {
			if sf := typ.Field(f); !sf.Anonymous && reflect.DeepEqual(a.Field(f).Interface(), b.Field(f).Interface()) {
				t.Errorf("%s's twin does not differ in field %s", name, sf.Name)
			}
		}
		for _, req := range reqs {
			got, want := twin.AppendChildReqs(req, nil), p.AppendChildReqs(req, nil)
			if !slices.EqualFunc(got, want, props.Required.Equal) {
				t.Errorf("%s is RequestOnly but its twin asks %v under %s, not %v", name, got, req, want)
			}
		}
	}
	prefix := props.Required{Dist: props.ReplicatedDist}
	for i, p := range physical {
		name := fmt.Sprintf("%d:%T", i, p)
		_, invariant := p.(RequestInvariant)
		_, reqOnly := p.(RequestOnly)
		var first []props.Required
		varies := false
		for j, req := range reqs {
			got := p.AppendChildReqs(req, []props.Required{prefix})
			if len(got) == 0 || !got[0].Equal(prefix) {
				t.Errorf("%s under %s: the requests already in dst were not kept", name, req)
				continue
			}
			got = got[1:]
			n := arity(p)
			if n == 0 && len(got) != 0 || n > 0 && (len(got) == 0 || len(got)%n != 0) {
				t.Errorf("%s under %s: %d requests for arity %d", name, req, len(got), n)
			}
			if j == 0 {
				first = got
			} else if !slices.EqualFunc(got, first, props.Required.Equal) {
				varies = true
				if invariant {
					t.Errorf("%s is RequestInvariant but asks %v under %s and %v under %s", name, got, req, first, reqs[0])
				}
			}
		}
		// An operator whose requests never vary should say so, or search
		// interns them again for every request it is costed under.
		if !invariant && !reqOnly && !varies {
			t.Errorf("%s asks the same alternatives under every request but is not RequestInvariant", name)
		}
	}
}

func TestParamEqualDistinguishesOperators(t *testing.T) {
	a := &Join{Type: InnerJoin, Pred: Eq(NewIdent(1, base.TInt), NewIdent(2, base.TInt))}
	b := &Join{Type: InnerJoin, Pred: Eq(NewIdent(1, base.TInt), NewIdent(2, base.TInt))}
	c := &Join{Type: LeftJoin, Pred: a.Pred}
	if !a.ParamEqual(b) || a.ParamHash() != b.ParamHash() {
		t.Error("identical joins must compare equal and hash equally")
	}
	if a.ParamEqual(c) {
		t.Error("join type ignored")
	}
	if a.ParamEqual(&Select{Pred: a.Pred}) {
		t.Error("cross-operator ParamEqual must be false")
	}
}

func TestPrunePartitions(t *testing.T) {
	p := md.NewMemProvider()
	rel := md.Build(p, md.TableSpec{
		Name: "pt", Rows: 100, Policy: md.DistHash, DistCols: []int{0},
		PartCol: 1,
		Parts: []md.Partition{
			{Name: "p0", Lo: base.NewInt(0), Hi: base.NewInt(10)},
			{Name: "p1", Lo: base.NewInt(10), Hi: base.NewInt(20)},
			{Name: "p2", Lo: base.NewInt(20), Hi: base.NewInt(30)},
		},
		Cols: []md.ColSpec{
			{Name: "id", Type: base.TInt, NDV: 100, Lo: 0, Hi: 100},
			{Name: "d", Type: base.TInt, NDV: 30, Lo: 0, Hi: 30},
		},
	})
	f := md.NewColumnFactory()
	cols := []*md.ColRef{
		f.NewTableColumn("id", base.TInt, rel.Mdid, 0),
		f.NewTableColumn("d", base.TInt, rel.Mdid, 1),
	}
	d := func() ScalarExpr { return NewIdent(cols[1].ID, base.TInt) }
	c := func(v int64) ScalarExpr { return NewConst(base.NewInt(v)) }

	cases := []struct {
		name string
		pred ScalarExpr
		want []int
		ok   bool
	}{
		{"eq", Eq(d(), c(15)), []int{1}, true},
		{"lt-boundary", NewCmp(CmpLt, d(), c(10)), []int{0}, true},
		{"le-boundary", NewCmp(CmpLe, d(), c(10)), []int{0, 1}, true},
		{"gt", NewCmp(CmpGt, d(), c(19)), []int{1, 2}, true},
		{"range", And(NewCmp(CmpGe, d(), c(5)), NewCmp(CmpLt, d(), c(15))), []int{0, 1}, true},
		{"in-list", &InList{Arg: d(), Vals: []ScalarExpr{c(5), c(25)}}, []int{0, 2}, true},
		{"empty", Eq(d(), c(99)), nil, true},
		{"other-col", Eq(NewIdent(cols[0].ID, base.TInt), c(1)), nil, false},
		{"reversed", NewCmp(CmpGt, c(10), d()), []int{0}, true}, // 10 > d ⇔ d < 10
	}
	for _, tc := range cases {
		got, pruned := PrunePartitions(rel, cols, tc.pred)
		if pruned != tc.ok {
			t.Errorf("%s: pruned=%v, want %v", tc.name, pruned, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: parts=%v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: parts=%v, want %v", tc.name, got, tc.want)
			}
		}
	}
}
