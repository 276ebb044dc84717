// Package ops defines the operator algebra shared by the whole system: the
// scalar expression language, the logical operators the binder and
// transformation rules produce, the physical operators (including the motion
// enforcers of paper §4.1), and the expression trees that flow into and out
// of the Memo.
package ops

import (
	"fmt"
	"strings"

	"orca/internal/base"
)

// ScalarExpr is a scalar expression tree node: predicates, projections, join
// conditions. Scalars are carried as operator parameters (the join condition
// lives inside the join operator), and participate in group-expression
// fingerprints through their Hash.
type ScalarExpr interface {
	// Cols returns every column referenced by the expression, including
	// outer references made from inside subqueries.
	Cols() base.ColSet
	// Hash returns a structural hash.
	Hash() uint64
	// Equal reports structural equality.
	Equal(ScalarExpr) bool
	// String renders the expression for explains; column refs print as c<id>.
	String() string
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashMix(h uint64, v uint64) uint64 { return (h ^ v) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashMix(h, uint64(s[i]))
	}
	return hashMix(h, 0xff)
}

// ---------------------------------------------------------------------------
// Leaf scalars

// Ident is a column reference.
type Ident struct {
	Col  base.ColID
	Type base.TypeID
}

// NewIdent builds a column reference.
func NewIdent(col base.ColID, typ base.TypeID) *Ident { return &Ident{Col: col, Type: typ} }

// Cols implements ScalarExpr.
func (e *Ident) Cols() base.ColSet { return base.MakeColSet(e.Col) }

// Hash implements ScalarExpr.
func (e *Ident) Hash() uint64 { return hashMix(hashString(fnvOffset, "ident"), uint64(e.Col)) }

// Equal implements ScalarExpr.
func (e *Ident) Equal(o ScalarExpr) bool {
	i, ok := o.(*Ident)
	return ok && i.Col == e.Col
}

// String implements ScalarExpr.
func (e *Ident) String() string { return fmt.Sprintf("c%d", e.Col) }

// Const is a literal value.
type Const struct {
	Val base.Datum
}

// NewConst builds a literal.
func NewConst(v base.Datum) *Const { return &Const{Val: v} }

// Cols implements ScalarExpr.
func (e *Const) Cols() base.ColSet { return base.ColSet{} }

// Hash implements ScalarExpr.
func (e *Const) Hash() uint64 { return hashMix(hashString(fnvOffset, "const"), e.Val.Hash()) }

// Equal implements ScalarExpr.
func (e *Const) Equal(o ScalarExpr) bool {
	c, ok := o.(*Const)
	return ok && c.Val.Equal(e.Val) && c.Val.Kind == e.Val.Kind
}

// String implements ScalarExpr.
func (e *Const) String() string { return e.Val.String() }

// Param is a placeholder for a constant extracted from a query shape by the
// parameterized plan cache (internal/plancache): the shape is fingerprinted
// with Params where the literals were, and the cached physical plan carries
// Params that a later hit rebinds with its own constant vector. Params exist
// only inside plan-cache keys and cached entries — rebinding replaces every
// Param with a Const before a plan leaves the cache, so the Memo, the DXL
// serializer and the execution engine never see one (their legs are
// defensive).
type Param struct {
	Ord int
}

// NewParam builds a parameter placeholder with the given vector ordinal.
func NewParam(ord int) *Param { return &Param{Ord: ord} }

// Cols implements ScalarExpr.
func (e *Param) Cols() base.ColSet { return base.ColSet{} }

// Hash implements ScalarExpr. The hash covers only the ordinal — two shapes
// differing solely in constant values collide, which is the plan cache's
// entire point.
func (e *Param) Hash() uint64 { return hashMix(hashString(fnvOffset, "param"), uint64(e.Ord)) }

// Equal implements ScalarExpr.
func (e *Param) Equal(o ScalarExpr) bool {
	p, ok := o.(*Param)
	return ok && p.Ord == e.Ord
}

// String implements ScalarExpr.
func (e *Param) String() string { return fmt.Sprintf("$%d", e.Ord) }

// ---------------------------------------------------------------------------
// Comparisons and boolean connectors

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the SQL token.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Commuted returns the operator with its operands swapped (a < b ⇔ b > a).
func (op CmpOp) Commuted() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op
	}
}

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R ScalarExpr
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r ScalarExpr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eq builds an equality comparison.
func Eq(l, r ScalarExpr) *Cmp { return NewCmp(CmpEq, l, r) }

// Cols implements ScalarExpr.
func (e *Cmp) Cols() base.ColSet { return e.L.Cols().Union(e.R.Cols()) }

// Hash implements ScalarExpr.
func (e *Cmp) Hash() uint64 {
	h := hashString(fnvOffset, "cmp")
	h = hashMix(h, uint64(e.Op))
	h = hashMix(h, e.L.Hash())
	return hashMix(h, e.R.Hash())
}

// Equal implements ScalarExpr.
func (e *Cmp) Equal(o ScalarExpr) bool {
	c, ok := o.(*Cmp)
	return ok && c.Op == e.Op && c.L.Equal(e.L) && c.R.Equal(e.R)
}

// String implements ScalarExpr.
func (e *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// BoolOpKind is a boolean connector.
type BoolOpKind uint8

// Boolean connectors.
const (
	BoolAnd BoolOpKind = iota
	BoolOr
	BoolNot
)

// BoolOp is AND/OR/NOT over predicates.
type BoolOp struct {
	Kind BoolOpKind
	Args []ScalarExpr
}

// And conjoins predicates, flattening nested ANDs and dropping nils; it
// returns nil for an empty conjunction (the always-true predicate).
func And(args ...ScalarExpr) ScalarExpr {
	var flat []ScalarExpr
	for _, a := range args {
		if a == nil {
			continue
		}
		if b, ok := a.(*BoolOp); ok && b.Kind == BoolAnd {
			flat = append(flat, b.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return &BoolOp{Kind: BoolAnd, Args: flat}
	}
}

// Or disjoins predicates.
func Or(args ...ScalarExpr) ScalarExpr {
	if len(args) == 1 {
		return args[0]
	}
	return &BoolOp{Kind: BoolOr, Args: args}
}

// Not negates a predicate.
func Not(arg ScalarExpr) ScalarExpr { return &BoolOp{Kind: BoolNot, Args: []ScalarExpr{arg}} }

// Cols implements ScalarExpr.
func (e *BoolOp) Cols() base.ColSet {
	var s base.ColSet
	for _, a := range e.Args {
		s = s.Union(a.Cols())
	}
	return s
}

// Hash implements ScalarExpr.
func (e *BoolOp) Hash() uint64 {
	h := hashString(fnvOffset, "bool")
	h = hashMix(h, uint64(e.Kind))
	for _, a := range e.Args {
		h = hashMix(h, a.Hash())
	}
	return h
}

// Equal implements ScalarExpr.
func (e *BoolOp) Equal(o ScalarExpr) bool {
	b, ok := o.(*BoolOp)
	if !ok || b.Kind != e.Kind || len(b.Args) != len(e.Args) {
		return false
	}
	for i := range e.Args {
		if !e.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// String implements ScalarExpr.
func (e *BoolOp) String() string {
	switch e.Kind {
	case BoolNot:
		return "NOT " + e.Args[0].String()
	case BoolAnd:
		return joinScalarStrings(e.Args, " AND ")
	default:
		return joinScalarStrings(e.Args, " OR ")
	}
}

func joinScalarStrings(args []ScalarExpr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// ---------------------------------------------------------------------------
// Functions, arithmetic, CASE, NULL tests

// BinOp is binary arithmetic (+, -, *, /, %).
type BinOp struct {
	Op   string
	L, R ScalarExpr
}

// Cols implements ScalarExpr.
func (e *BinOp) Cols() base.ColSet { return e.L.Cols().Union(e.R.Cols()) }

// Hash implements ScalarExpr.
func (e *BinOp) Hash() uint64 {
	h := hashString(fnvOffset, "bin")
	h = hashString(h, e.Op)
	h = hashMix(h, e.L.Hash())
	return hashMix(h, e.R.Hash())
}

// Equal implements ScalarExpr.
func (e *BinOp) Equal(o ScalarExpr) bool {
	b, ok := o.(*BinOp)
	return ok && b.Op == e.Op && b.L.Equal(e.L) && b.R.Equal(e.R)
}

// String implements ScalarExpr.
func (e *BinOp) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Func is a scalar function call (substr, like, coalesce, ...).
type Func struct {
	Name string
	Args []ScalarExpr
}

// Cols implements ScalarExpr.
func (e *Func) Cols() base.ColSet {
	var s base.ColSet
	for _, a := range e.Args {
		s = s.Union(a.Cols())
	}
	return s
}

// Hash implements ScalarExpr.
func (e *Func) Hash() uint64 {
	h := hashString(fnvOffset, "func")
	h = hashString(h, e.Name)
	for _, a := range e.Args {
		h = hashMix(h, a.Hash())
	}
	return h
}

// Equal implements ScalarExpr.
func (e *Func) Equal(o ScalarExpr) bool {
	f, ok := o.(*Func)
	if !ok || f.Name != e.Name || len(f.Args) != len(e.Args) {
		return false
	}
	for i := range e.Args {
		if !e.Args[i].Equal(f.Args[i]) {
			return false
		}
	}
	return true
}

// String implements ScalarExpr.
func (e *Func) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// CaseWhen is one WHEN/THEN arm of a CASE expression.
type CaseWhen struct {
	When ScalarExpr
	Then ScalarExpr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  ScalarExpr // may be nil (NULL)
}

// Cols implements ScalarExpr.
func (e *Case) Cols() base.ColSet {
	var s base.ColSet
	for _, w := range e.Whens {
		s = s.Union(w.When.Cols()).Union(w.Then.Cols())
	}
	if e.Else != nil {
		s = s.Union(e.Else.Cols())
	}
	return s
}

// Hash implements ScalarExpr.
func (e *Case) Hash() uint64 {
	h := hashString(fnvOffset, "case")
	for _, w := range e.Whens {
		h = hashMix(h, w.When.Hash())
		h = hashMix(h, w.Then.Hash())
	}
	if e.Else != nil {
		h = hashMix(h, e.Else.Hash())
	}
	return h
}

// Equal implements ScalarExpr.
func (e *Case) Equal(o ScalarExpr) bool {
	c, ok := o.(*Case)
	if !ok || len(c.Whens) != len(e.Whens) {
		return false
	}
	for i := range e.Whens {
		if !e.Whens[i].When.Equal(c.Whens[i].When) || !e.Whens[i].Then.Equal(c.Whens[i].Then) {
			return false
		}
	}
	if (e.Else == nil) != (c.Else == nil) {
		return false
	}
	return e.Else == nil || e.Else.Equal(c.Else)
}

// String implements ScalarExpr.
func (e *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.When, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// IsNull tests a value for SQL NULL (or NOT NULL when Negated).
type IsNull struct {
	Arg     ScalarExpr
	Negated bool
}

// Cols implements ScalarExpr.
func (e *IsNull) Cols() base.ColSet { return e.Arg.Cols() }

// Hash implements ScalarExpr.
func (e *IsNull) Hash() uint64 {
	h := hashString(fnvOffset, "isnull")
	if e.Negated {
		h = hashMix(h, 1)
	}
	return hashMix(h, e.Arg.Hash())
}

// Equal implements ScalarExpr.
func (e *IsNull) Equal(o ScalarExpr) bool {
	n, ok := o.(*IsNull)
	return ok && n.Negated == e.Negated && n.Arg.Equal(e.Arg)
}

// String implements ScalarExpr.
func (e *IsNull) String() string {
	if e.Negated {
		return e.Arg.String() + " IS NOT NULL"
	}
	return e.Arg.String() + " IS NULL"
}

// InList tests membership in a literal list.
type InList struct {
	Arg     ScalarExpr
	Vals    []ScalarExpr
	Negated bool
}

// Cols implements ScalarExpr.
func (e *InList) Cols() base.ColSet {
	s := e.Arg.Cols()
	for _, v := range e.Vals {
		s = s.Union(v.Cols())
	}
	return s
}

// Hash implements ScalarExpr.
func (e *InList) Hash() uint64 {
	h := hashString(fnvOffset, "inlist")
	if e.Negated {
		h = hashMix(h, 1)
	}
	h = hashMix(h, e.Arg.Hash())
	for _, v := range e.Vals {
		h = hashMix(h, v.Hash())
	}
	return h
}

// Equal implements ScalarExpr.
func (e *InList) Equal(o ScalarExpr) bool {
	l, ok := o.(*InList)
	if !ok || l.Negated != e.Negated || len(l.Vals) != len(e.Vals) || !l.Arg.Equal(e.Arg) {
		return false
	}
	for i := range e.Vals {
		if !e.Vals[i].Equal(l.Vals[i]) {
			return false
		}
	}
	return true
}

// String implements ScalarExpr.
func (e *InList) String() string {
	not := ""
	if e.Negated {
		not = " NOT"
	}
	return e.Arg.String() + not + " IN " + joinScalarStrings(e.Vals, ",")
}

// ---------------------------------------------------------------------------
// Aggregates and window functions (appear only as operator parameters)

// AggFunc is an aggregate function applied by a GbAgg operator. Arg is nil
// for count(*). The binder rewrites avg(x) into sum(x)/count(x), so only
// count, sum, min and max reach the optimizer.
type AggFunc struct {
	Name     string // count, sum, min, max
	Arg      ScalarExpr
	Distinct bool
}

// Cols returns the columns referenced by the aggregate argument.
func (a *AggFunc) Cols() base.ColSet {
	if a.Arg == nil {
		return base.ColSet{}
	}
	return a.Arg.Cols()
}

// Hash returns a structural hash.
func (a *AggFunc) Hash() uint64 {
	h := hashString(fnvOffset, "agg")
	h = hashString(h, a.Name)
	if a.Distinct {
		h = hashMix(h, 1)
	}
	if a.Arg != nil {
		h = hashMix(h, a.Arg.Hash())
	}
	return h
}

// Equal reports structural equality.
func (a *AggFunc) Equal(o *AggFunc) bool {
	if a.Name != o.Name || a.Distinct != o.Distinct || (a.Arg == nil) != (o.Arg == nil) {
		return false
	}
	return a.Arg == nil || a.Arg.Equal(o.Arg)
}

// String renders "sum(c1)".
func (a *AggFunc) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return a.Name + "(" + arg + ")"
}

// WinFunc is a window function computed by a Window operator.
type WinFunc struct {
	Name string // rank, row_number, sum, count, min, max
	Arg  ScalarExpr
}

// Cols returns the columns referenced by the window function argument.
func (w *WinFunc) Cols() base.ColSet {
	if w.Arg == nil {
		return base.ColSet{}
	}
	return w.Arg.Cols()
}

// Hash returns a structural hash.
func (w *WinFunc) Hash() uint64 {
	h := hashString(fnvOffset, "win")
	h = hashString(h, w.Name)
	if w.Arg != nil {
		h = hashMix(h, w.Arg.Hash())
	}
	return h
}

// Equal reports structural equality.
func (w *WinFunc) Equal(o *WinFunc) bool {
	if w.Name != o.Name || (w.Arg == nil) != (o.Arg == nil) {
		return false
	}
	return w.Arg == nil || w.Arg.Equal(o.Arg)
}

// String renders "rank()" or "sum(c1)".
func (w *WinFunc) String() string {
	arg := ""
	if w.Arg != nil {
		arg = w.Arg.String()
	}
	return w.Name + "(" + arg + ")"
}

// ---------------------------------------------------------------------------
// Subqueries (unnested by normalization before reaching the Memo)

// SubqueryKind discriminates subquery scalars.
type SubqueryKind uint8

// Subquery kinds.
const (
	SubScalar SubqueryKind = iota // (SELECT x ...) used as a value
	SubExists                     // EXISTS (...)
	SubNotExists
	SubIn    // expr IN (SELECT x ...)
	SubNotIn // expr NOT IN (SELECT x ...)
)

// String names the subquery kind.
func (k SubqueryKind) String() string {
	switch k {
	case SubScalar:
		return "Scalar"
	case SubExists:
		return "Exists"
	case SubNotExists:
		return "NotExists"
	case SubIn:
		return "In"
	case SubNotIn:
		return "NotIn"
	default:
		return fmt.Sprintf("SubqueryKind(%d)", k)
	}
}

// Subquery is a subquery embedded in a scalar context. Input is the logical
// plan of the subquery; OutCol identifies the produced column for
// scalar/IN kinds; Test is the left operand of IN. Orca's unified subquery
// representation keeps these first-class until decorrelation rewrites them
// into (semi/anti/scalar) joins — the normalizer in internal/core does the
// same here; a Subquery that survives to plan time becomes a SubPlan only in
// the legacy Planner baseline. The engine therefore never evaluates one.
type Subquery struct {
	Kind   SubqueryKind
	Input  *Expr // logical tree
	OutCol base.ColID
	Test   ScalarExpr // IN kinds only
}

// Cols implements ScalarExpr: the free (outer) columns of the subquery plus
// the test expression's columns.
func (e *Subquery) Cols() base.ColSet {
	s := FreeCols(e.Input)
	if e.Test != nil {
		s = s.Union(e.Test.Cols())
	}
	return s
}

// Hash implements ScalarExpr; subquery identity is by input tree pointer
// because subquery trees are never deduplicated structurally.
func (e *Subquery) Hash() uint64 {
	h := hashString(fnvOffset, "subq")
	h = hashMix(h, uint64(e.Kind))
	h = hashMix(h, uint64(e.OutCol))
	return hashMix(h, uint64(fmt.Sprintf("%p", e.Input)[2]))
}

// Equal implements ScalarExpr.
func (e *Subquery) Equal(o ScalarExpr) bool {
	s, ok := o.(*Subquery)
	return ok && s == e
}

// String implements ScalarExpr.
func (e *Subquery) String() string {
	switch e.Kind {
	case SubExists:
		return "EXISTS(subquery)"
	case SubNotExists:
		return "NOT EXISTS(subquery)"
	case SubIn:
		return e.Test.String() + " IN (subquery)"
	case SubNotIn:
		return e.Test.String() + " NOT IN (subquery)"
	default:
		return fmt.Sprintf("subquery(c%d)", e.OutCol)
	}
}
