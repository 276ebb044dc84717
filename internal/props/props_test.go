package props

import (
	"testing"
	"testing/quick"

	"orca/internal/base"
)

func TestOrderSatisfiesPrefix(t *testing.T) {
	full := MakeOrder(1, 2, 3)
	cases := []struct {
		req  OrderSpec
		want bool
	}{
		{AnyOrder, true},
		{MakeOrder(1), true},
		{MakeOrder(1, 2), true},
		{MakeOrder(1, 2, 3), true},
		{MakeOrder(2), false},
		{MakeOrder(1, 3), false},
		{MakeOrder(1, 2, 3, 4), false},
		{OrderSpec{Items: []OrderItem{{Col: 1, Desc: true}}}, false}, // direction matters
	}
	for _, c := range cases {
		if got := full.Satisfies(c.req); got != c.want {
			t.Errorf("<1,2,3>.Satisfies(%s) = %v, want %v", c.req, got, c.want)
		}
	}
}

func TestOrderSatisfiesTransitive(t *testing.T) {
	f := func(cols []uint8) bool {
		if len(cols) < 3 {
			return true
		}
		var full, mid, short OrderSpec
		for i, c := range cols {
			it := OrderItem{Col: base.ColID(c)}
			full.Items = append(full.Items, it)
			if i < len(cols)-1 {
				mid.Items = append(mid.Items, it)
			}
			if i < len(cols)-2 {
				short.Items = append(short.Items, it)
			}
		}
		return full.Satisfies(mid) && mid.Satisfies(short) && full.Satisfies(short)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOrderHashEqual(t *testing.T) {
	a := MakeOrder(1, 2)
	b := MakeOrder(1, 2)
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Error("equal orders must hash equally")
	}
	c := OrderSpec{Items: []OrderItem{{Col: 1}, {Col: 2, Desc: true}}}
	if a.Equal(c) {
		t.Error("desc flag ignored by Equal")
	}
}

func TestDistributionSatisfies(t *testing.T) {
	cases := []struct {
		delivered, required Distribution
		want                bool
	}{
		// Any is satisfied by everything.
		{SingletonDist, AnyDist, true},
		{Hashed(1), AnyDist, true},
		{RandomDist, AnyDist, true},
		// Singleton.
		{SingletonDist, SingletonDist, true},
		{ReplicatedDist, SingletonDist, true}, // one copy read
		{Hashed(1), SingletonDist, false},
		{RandomDist, SingletonDist, false},
		// Hashed: exact column match only.
		{Hashed(1), Hashed(1), true},
		{Hashed(1, 2), Hashed(1, 2), true},
		{Hashed(2, 1), Hashed(1, 2), false},
		{Hashed(1), Hashed(2), false},
		{Hashed(1), Hashed(1, 2), false},
		{SingletonDist, Hashed(1), false},
		// Replicated satisfies hashed only when duplicate-tolerant.
		{ReplicatedDist, HashedDupSafe(1), true},
		{ReplicatedDist, Hashed(1), false},
		// Replicated requirement.
		{ReplicatedDist, ReplicatedDist, true},
		{SingletonDist, ReplicatedDist, false},
		// Random requirement: anything with one logical copy per row.
		{RandomDist, RandomDist, true},
		{Hashed(3), RandomDist, true},
		{SingletonDist, RandomDist, true},
		{ReplicatedDist, RandomDist, false}, // duplicates
	}
	for _, c := range cases {
		if got := c.delivered.Satisfies(c.required); got != c.want {
			t.Errorf("%s.Satisfies(%s) = %v, want %v", c.delivered, c.required, got, c.want)
		}
	}
}

func TestDistributionEqualHash(t *testing.T) {
	if !Hashed(1, 2).Equal(Hashed(1, 2)) {
		t.Error("equal hashed dists not Equal")
	}
	if Hashed(1).Equal(HashedDupSafe(1)) {
		t.Error("AllowReplicated must distinguish distributions")
	}
	if Hashed(1).Hash() == HashedDupSafe(1).Hash() {
		t.Error("AllowReplicated must change the hash")
	}
}

func TestRequiredSatisfaction(t *testing.T) {
	req := Required{Dist: SingletonDist, Order: MakeOrder(1)}
	ok := Derived{Dist: SingletonDist, Order: MakeOrder(1, 2)}
	if !ok.Satisfies(req) {
		t.Error("stronger order must satisfy weaker requirement")
	}
	noOrder := Derived{Dist: SingletonDist}
	if noOrder.Satisfies(req) {
		t.Error("missing order accepted")
	}
	rewindReq := Required{Dist: AnyDist, Rewindable: true}
	if (Derived{Dist: RandomDist}).Satisfies(rewindReq) {
		t.Error("missing rewindability accepted")
	}
	if !(Derived{Dist: RandomDist, Rewindable: true}).Satisfies(rewindReq) {
		t.Error("rewindable plan rejected")
	}
}

func TestRequiredHashEqual(t *testing.T) {
	a := Required{Dist: Hashed(1), Order: MakeOrder(2)}
	b := Required{Dist: Hashed(1), Order: MakeOrder(2)}
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Error("equal requests must match and hash equally")
	}
	c := Required{Dist: Hashed(1), Order: MakeOrder(2), Rewindable: true}
	if a.Equal(c) || a.Hash() == c.Hash() {
		t.Error("rewindability ignored in request identity")
	}
}

func TestRequiredString(t *testing.T) {
	r := Required{Dist: SingletonDist, Order: MakeOrder(0)}
	if got := r.String(); got != "{Singleton, <0>}" {
		t.Errorf("String = %q (the paper's req #1 notation)", got)
	}
}

// collide hashes every value alike, so an Interner must tell them apart by
// Equal alone.
type collide int

func (c collide) Hash() uint64         { return 7 }
func (c collide) Equal(o collide) bool { return c == o }

func TestInternerExactAndDense(t *testing.T) {
	var in Interner[collide]
	for i, v := range []collide{5, 3, 5, 9, 3} {
		want := []int32{0, 1, 0, 2, 1}[i]
		if id := in.Intern(v); id != want {
			t.Errorf("Intern(%d) = %d, want %d", v, id, want)
		}
	}
	if in.Len() != 3 {
		t.Errorf("Len = %d, want 3", in.Len())
	}
	if id, ok := in.Lookup(9); !ok || id != 2 {
		t.Errorf("Lookup(9) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup(4); ok {
		t.Error("Lookup found a value never interned")
	}
	if v, ok := in.Value(1); !ok || v != 3 {
		t.Errorf("Value(1) = %d, %v", v, ok)
	}
	if _, ok := in.Value(3); ok {
		t.Error("Value read back an id never handed out")
	}
	var reqs Interner[Required]
	a := reqs.Intern(Required{Dist: Hashed(1, 2)})
	if b := reqs.Intern(Required{Dist: HashedDupSafe(1, 2)}); a == b {
		t.Error("requests differing only in AllowReplicated share an id")
	}
}
