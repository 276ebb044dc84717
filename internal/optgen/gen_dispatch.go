package optgen

// The dispatch generators emit the per-package operator switch that routes
// each operator to its hand-written semantic handler. Because they are
// generated from the same catalog as the operator structs, a declared
// operator with a missing handler is a compile error in the consuming
// package, not a latent runtime panic.

// genCostDispatch emits internal/cost/dispatch.gen.go. Physical and
// enforcer operators each get a cost<Op> method on Model.
func genCostDispatch(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package cost")
	g.p("")
	g.p("import %q", "orca/internal/ops")
	g.p("")
	g.p("// LocalCost returns the cost of the operator itself, excluding children,")
	g.p("// dispatching to the hand-written per-operator formula (cost<Op>).")
	g.p("//")
	g.p("//orcavet:hotpath runs once per candidate plan during Figure-6 optimization")
	g.p("func (m *Model) LocalCost(op ops.Operator, in Inputs) float64 {")
	g.p("\tswitch o := op.(type) {")
	for _, o := range opsOfKind(cat, KindPhysical, KindEnforcer) {
		g.p("\tcase *ops.%s:", o.Name)
		g.p("\t\treturn m.cost%s(o, in)", o.Name)
	}
	g.p("\tdefault:")
	g.p("\t\treturn m.costDefault(in)")
	g.p("\t}")
	g.p("}")
	return g.gofmt()
}

// genStatsDispatch emits internal/stats/dispatch.gen.go. Logical operators
// each get a derive<Op> method on Context; everything else (physical trees
// re-derived by the legacy planner) falls through to deriveDefault.
func genStatsDispatch(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package stats")
	g.p("")
	g.p("import %q", "orca/internal/ops")
	g.p("")
	g.p("// Derive computes the statistics of an operator from its children's")
	g.p("// statistics, dispatching to the hand-written per-operator derivation")
	g.p("// (derive<Op>). It covers logical operators (Memo groups) and is reused")
	g.p("// by the legacy Planner for its physical trees, which pass through.")
	g.p("func (ctx *Context) Derive(op ops.Operator, child []*Stats) (*Stats, error) {")
	g.p("\tswitch o := op.(type) {")
	for _, o := range opsOfKind(cat, KindLogical) {
		g.p("\tcase *ops.%s:", o.Name)
		g.p("\t\treturn ctx.derive%s(o, child)", o.Name)
	}
	g.p("\tdefault:")
	g.p("\t\treturn ctx.deriveDefault(child), nil")
	g.p("\t}")
	g.p("}")
	return g.gofmt()
}

// genEngineDispatch emits internal/engine/dispatch.gen.go. Physical and
// enforcer operators each get an exec<Op> method on executor with the
// uniform signature (op, expr).
func genEngineDispatch(cat *Catalog) ([]byte, error) {
	var g gen
	g.buf.WriteString(header)
	g.p("package engine")
	g.p("")
	g.p("import (")
	g.p("\t%q", "fmt")
	g.p("")
	g.p("\t%q", "orca/internal/ops")
	g.p(")")
	g.p("")
	g.p("// execOp dispatches one plan node to the hand-written per-operator")
	g.p("// executor (exec<Op>).")
	g.p("func (ex *executor) execOp(e *ops.Expr) (*result, error) {")
	g.p("\tswitch op := e.Op.(type) {")
	for _, o := range opsOfKind(cat, KindPhysical, KindEnforcer) {
		g.p("\tcase *ops.%s:", o.Name)
		g.p("\t\treturn ex.exec%s(op, e)", o.Name)
	}
	g.p("\tdefault:")
	g.p("\t\treturn nil, fmt.Errorf(\"engine: cannot execute operator %%s\", e.Op.Name())")
	g.p("\t}")
	g.p("}")
	return g.gofmt()
}
