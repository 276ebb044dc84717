package memo

import (
	"orca/internal/gpos"
)

// Validate checks the Memo's structural invariants and returns the first
// violation found, or nil. It is the runtime counterpart of orcavet's
// publish analyzer (internal/analysis): the analyzer forbids out-of-package
// mutation at compile time, Validate catches corruption that slips past it
// (e.g. through retained slices or unsafe code). Tests call it after
// exercising the Memo; it is cheap enough for debug builds but quadratic in
// group size, so it is not run on production paths.
//
// Invariants checked:
//   - group IDs are dense and match their index positions;
//   - every group belongs to this Memo and holds at least one expression;
//   - every expression's back-pointer names its owning group;
//   - child group IDs are in range and never self-referential — except for
//     enforcers, which by construction wrap their own group (paper Figure 6:
//     "6: Sort(T1.a) [0]");
//   - stored fingerprints match a fresh recomputation (detects post-insert
//     mutation of operators or child slices);
//   - duplicate detection holds: no two expressions of a group match, and
//     the content-addressed registry is consistent — every entry sits in
//     its fingerprint's bucket and is reachable from its group.
func (m *Memo) Validate() error {
	fail := func(format string, args ...any) error {
		return gpos.Raise(gpos.CompMemo, "InvalidMemo", format, args...)
	}

	for i, g := range m.groups {
		if g == nil {
			return fail("group slot %d is nil", i)
		}
		if g.ID != GroupID(i) {
			return fail("group at slot %d has ID %d", i, g.ID)
		}
		if g.memo != m {
			return fail("group %d belongs to a different Memo", g.ID)
		}
		exprs := g.Exprs()
		if len(exprs) == 0 {
			return fail("group %d has no expressions", g.ID)
		}
		for j, ge := range exprs {
			if ge.group != g {
				return fail("group %d expr %d back-pointer names group %v", g.ID, j, ge.group.ID)
			}
			if ge.Op == nil {
				return fail("group %d expr %d has nil operator", g.ID, j)
			}
			for _, c := range ge.Children {
				if c < 0 || int(c) >= len(m.groups) {
					return fail("group %d expr %d references out-of-range child group %d", g.ID, j, c)
				}
				if c == g.ID && !ge.IsEnforcer() {
					return fail("group %d expr %d references its own group as a child", g.ID, j)
				}
			}
			if fp := fingerprint(ge.Op, ge.Children); fp != ge.fp {
				return fail("group %d expr %d fingerprint mismatch: stored %#x, recomputed %#x (operator or child slice mutated after insert)", g.ID, j, ge.fp, fp)
			}
			for k := j + 1; k < len(exprs); k++ {
				if other := exprs[k]; other.fp == ge.fp && other.matches(ge.Op, ge.Children) {
					return fail("group %d exprs %d and %d are duplicates: duplicate detection failed", g.ID, j, k)
				}
			}
		}
	}

	for fp, bucket := range m.registry {
		for i, ge := range bucket {
			if ge.fp != fp {
				return fail("registry bucket %#x entry %d carries fingerprint %#x", fp, i, ge.fp)
			}
			if ge.group == nil || ge.group.memo != m {
				return fail("registry bucket %#x entry %d is detached from this Memo", fp, i)
			}
			present := false
			for _, e := range ge.group.exprs {
				if e == ge {
					present = true
					break
				}
			}
			if !present {
				return fail("registry bucket %#x entry %d is missing from group %d", fp, i, ge.group.ID)
			}
		}
	}
	return nil
}
