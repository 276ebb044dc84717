// Package xform implements Orca's transformation rules (paper §3
// "Transformations"): self-contained components producing either equivalent
// logical expressions (exploration) or physical implementations
// (implementation). Each rule can be activated or deactivated individually
// through the optimizer configuration, which is also how optimization stages
// select rule subsets (paper §4.1 "Multi-Stage Optimization").
package xform

import (
	"strconv"
	"strings"

	"orca/internal/md"
	"orca/internal/memo"
	"orca/internal/ops"
	"orca/internal/stats"
)

// Kind separates exploration from implementation rules.
type Kind uint8

// Rule kinds.
const (
	Exploration Kind = iota
	Implementation
)

// ---------------------------------------------------------------------------
// Rule registry: stable dense IDs

// Rule names are a closed set: every rule is declared in defs/rules.opt, and
// the RuleID* const block in rules.gen.go assigns one compile-time constant
// per rule in declaration order. generatedRuleIDs / generatedRuleNames are
// read-only after package init, so both lookups below are lock-free; nothing
// registers a rule at run time. Removing a rule from defs/ therefore removes
// its RuleID constant (a compile error wherever it is used) and makes its
// name unknown to RuleIDFor (a validation error wherever it is configured).

// RuleIDFor returns the dense id of a declared rule name; ok is false for any
// other string.
func RuleIDFor(name string) (id int, ok bool) {
	id, ok = generatedRuleIDs[name]
	return id, ok
}

// RuleNameFor returns the name of a dense rule id, or "" when the id is out
// of range.
func RuleNameFor(id int) string {
	if id < 0 || id >= NumGeneratedRuleIDs {
		return ""
	}
	return generatedRuleNames[id]
}

// ActiveRule is a rule activated for the current stage together with its
// dense registry id, so the search jobs check the applied ledger without
// touching the rule's name.
type ActiveRule struct {
	Rule
	ID int
}

// Context carries everything rules need: the Memo for copy-in, the
// statistics context for cardinality-driven rules (join ordering), metadata
// access for index and partition information, the column factory for fresh
// columns (two-stage aggregates), and the segment count.
//
// The Context also holds the active rule set and its epoch, which is how
// optimization stages select rule subsets (paper §4.1 "Multi-Stage
// Optimization") against a shared Memo: each distinct enabled-rule signature
// gets a dense epoch number, and the Memo's per-group explored/implemented
// and per-context done markers are keyed by epoch. A later stage with the
// same rule set reuses the earlier stage's markers outright; a stage with a
// different rule set re-walks the Memo under its own epoch, while the
// per-expression applied ledger (which spans epochs) keeps already-fired
// rules from firing again.
type Context struct {
	Memo       *memo.Memo
	Stats      *stats.Context
	Accessor   *md.Accessor
	ColFactory *md.ColumnFactory
	Segments   int

	epoch           int
	epochs          map[string]int
	explorations    []ActiveRule
	implementations []ActiveRule
	byID            []ActiveRule // active rules indexed by dense id; zero Rule = inactive

	conj conjTable // the join rules' conjunct table
}

// SetRuleSet installs the stage's enabled rules (all rules minus the
// disabled set) and returns the rule-set epoch: stages with identical
// enabled-rule signatures share an epoch, so an identical later stage is a
// no-op resume rather than a re-walk. The signature is the bitset of dense
// rule IDs (not a joined name list): the same set of rules always produces
// the same epoch key regardless of registration or iteration order.
func (ctx *Context) SetRuleSet(rules []Rule, disabled map[string]bool) int {
	ctx.explorations = ctx.explorations[:0]
	ctx.implementations = ctx.implementations[:0]
	clear(ctx.byID)
	var sig []uint64
	for _, r := range rules {
		if disabled[r.Name()] {
			continue
		}
		id, ok := RuleIDFor(r.Name())
		if !ok {
			panic("xform: rule " + r.Name() + " is not declared in defs/rules.opt")
		}
		for len(sig) <= id>>6 {
			sig = append(sig, 0)
		}
		sig[id>>6] |= uint64(1) << (id & 63)
		ar := ActiveRule{Rule: r, ID: id}
		for len(ctx.byID) <= id {
			ctx.byID = append(ctx.byID, ActiveRule{})
		}
		ctx.byID[id] = ar
		switch r.Kind() {
		case Exploration:
			ctx.explorations = append(ctx.explorations, ar)
		case Implementation:
			ctx.implementations = append(ctx.implementations, ar)
		}
	}
	var key strings.Builder
	for _, w := range sig {
		key.WriteString(strconv.FormatUint(w, 16))
		key.WriteByte('.')
	}
	if ctx.epochs == nil {
		ctx.epochs = make(map[string]int)
	}
	e, ok := ctx.epochs[key.String()]
	if !ok {
		e = len(ctx.epochs) + 1
		ctx.epochs[key.String()] = e
	}
	ctx.epoch = e
	return e
}

// Epoch returns the active rule-set epoch (0 until SetRuleSet is called).
func (ctx *Context) Epoch() int { return ctx.epoch }

// Explorations returns the active exploration rules with their dense ids.
func (ctx *Context) Explorations() []ActiveRule { return ctx.explorations }

// Implementations returns the active implementation rules with their dense
// ids.
func (ctx *Context) Implementations() []ActiveRule { return ctx.implementations }

// ActiveRule returns the active rule with the given dense id; ok is false
// when the rule is not part of the stage's rule set.
func (ctx *Context) ActiveRule(id int) (ar ActiveRule, ok bool) {
	if id < 0 || id >= len(ctx.byID) || ctx.byID[id].Rule == nil {
		return ActiveRule{}, false
	}
	return ctx.byID[id], true
}

// Rule is one transformation. Rules fire at most once per group expression
// (tracked on the expression); Apply inserts its results into the source
// expression's group.
type Rule interface {
	// Name identifies the rule in configurations and AMPERe dumps.
	Name() string
	// Kind reports exploration vs implementation.
	Kind() Kind
	// Matches reports whether the rule's pattern matches the expression.
	Matches(ge *memo.GroupExpr) bool
	// Apply performs the transformation, copying results into the Memo.
	Apply(ctx *Context, ge *memo.GroupExpr) error
}

// Insert copies one level of a rule result into the Memo (paper §3): op
// over existing child groups, into target or, when target is -1, a fresh
// group; a two-level result inserts its child first. The Memo keeps the
// children slice, which Insert may reorder.
func (ctx *Context) Insert(op ops.Operator, target memo.GroupID, children ...memo.GroupID) (*memo.GroupExpr, error) {
	// A fresh inner join registers in canonical orientation (smaller group
	// id left): the registry creates one group per (operator, children)
	// shape, and JoinAssociativity builds the same pair in path-dependent
	// orientations, so without the swap one sub-goal gets duplicate groups
	// that every parent multiplies across. An inner join's predicate is
	// symmetric; JoinCommutativity still adds the mirror within the group.
	if target < 0 && len(children) == 2 && children[0] > children[1] {
		if j, ok := op.(*ops.Join); ok && j.Type == ops.InnerJoin {
			children[0], children[1] = children[1], children[0]
		}
	}
	return ctx.Memo.InsertExpr(op, children, target)
}

// RuleNames returns the names of the given rules.
func RuleNames(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name()
	}
	return out
}
