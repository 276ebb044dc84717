package memo

import (
	"strings"
	"testing"

	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/ops"
)

// The corruption tests below reach into unexported state on purpose: they
// simulate exactly the out-of-package mutations the publish analyzer
// forbids, proving the static and runtime checks cross-cover each other.

func validatedMemo(t *testing.T) *Memo {
	t.Helper()
	m := New(&gpos.OwnedAccountant{})
	root, err := m.Insert(paperTree(md.NewColumnFactory()))
	if err != nil {
		t.Fatal(err)
	}
	m.SetRoot(root)
	mustValidate(t, m)
	return m
}

func wantViolation(t *testing.T, m *Memo, fragment string) {
	t.Helper()
	err := m.Validate()
	if err == nil {
		t.Fatalf("Validate accepted a corrupted Memo (wanted %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("Validate error = %q, want it to mention %q", err, fragment)
	}
}

func TestValidateDetectsChildMutation(t *testing.T) {
	m := validatedMemo(t)
	ge := m.Group(m.Root()).Exprs()[0]
	ge.Children[0], ge.Children[1] = ge.Children[1], ge.Children[0]
	wantViolation(t, m, "fingerprint mismatch")
}

func TestValidateDetectsOperatorMutation(t *testing.T) {
	m := validatedMemo(t)
	ge := m.Group(m.Root()).Exprs()[0]
	ge.Op = &ops.Join{Type: ops.LeftJoin, Pred: ge.Op.(*ops.Join).Pred}
	wantViolation(t, m, "fingerprint mismatch")
}

func TestValidateDetectsSelfCycle(t *testing.T) {
	m := validatedMemo(t)
	root := m.Group(m.Root())
	ge := root.Exprs()[0]
	ge.Children[0] = root.ID
	wantViolation(t, m, "its own group")
}

func TestValidateDetectsDuplicateExprs(t *testing.T) {
	m := validatedMemo(t)
	g := m.Group(m.Root())
	ge := g.Exprs()[0]
	dup := &GroupExpr{Op: ge.Op, Children: ge.Children, group: g, fp: ge.fp}
	g.exprs = append(g.exprs, dup)
	wantViolation(t, m, "duplicate")
}

func TestValidateDetectsBrokenBackPointer(t *testing.T) {
	m := validatedMemo(t)
	g := m.Group(m.Root())
	other := m.Group(g.Exprs()[0].Children[0])
	g.Exprs()[0].group = other
	wantViolation(t, m, "back-pointer")
}

func TestValidateDetectsRegistryDrift(t *testing.T) {
	m := validatedMemo(t)
	// Swap a group's expression for a content-identical clone: the group
	// stays structurally sound, but the content-addressed registry now
	// points at an expression no group holds.
	var ge *GroupExpr
	for _, bucket := range m.registry {
		ge = bucket[0]
		break
	}
	g := ge.group
	clone := &GroupExpr{Op: ge.Op, Children: ge.Children, group: g, fp: ge.fp}
	for i, e := range g.exprs {
		if e == ge {
			g.exprs[i] = clone
		}
	}
	wantViolation(t, m, "missing from group")
}
