// Package optgen implements the operator/rule definition language and the
// code generators behind cmd/optgen (ROADMAP: "Optgen-style rule/operator
// DSL with code generation"). The language is a small declarative surface in
// the spirit of CockroachDB's Optgen: defs/*.opt files declare every
// operator (name, kind, children, fields with identity markers) and every
// transformation rule (name, kind, match pattern, optional hand-written
// check predicate), and the generators emit the boilerplate legs the rest of
// the optimizer needs — operator structs with fingerprint methods
// (internal/ops), rule skeletons with dense compile-time IDs
// (internal/xform), DXL parameter serialization (internal/dxl), the
// cost/stats/engine dispatch tables, and docs/opmatrix.md.
//
// Grammar (line oriented; '#' starts a doc comment that attaches to the next
// declaration):
//
//	[Logical|Physical|Enforcer|Scalar, flags...] define Name {
//	    children N            # -1 = variadic
//	    Field Type [noident] [dxl=AttrName]
//	}
//
//	[Exploration|Implementation] rule Name {
//	    match OpName
//	    check                 # hand-written matchName predicate exists
//	}
//
// Operator flags: CustomName (Name() stays hand-written), PtrIdentity
// (ParamEqual compares pointers), Hand (declaration only — the struct and
// its methods stay hand-written; used by the scalar expression types),
// Normalized (the normalizer rewrites every instance before plan time, so
// the operator has no execution-engine leg).
// Field option noident excludes a field from ParamHash/ParamEqual and from
// DXL parameter serialization (derived or display-only state); dxl= renames
// the serialized attribute.
//
// Everything the generators emit is deterministic: declaration order is
// preserved, files are read in sorted order, and output is gofmt-formatted
// byte-identically (the check.sh drift gate depends on this).
package optgen

import "fmt"

// Catalog is the parsed content of a defs directory.
type Catalog struct {
	Ops   []*OpDef
	Rules []*RuleDef
}

// OpDef is one operator declaration.
type OpDef struct {
	Name        string
	Display     string // Name() return value when it differs from Name ("name X" directive)
	Kind        string // logical | physical | enforcer | scalar
	Doc         []string
	Arity       int
	CustomName  bool
	PtrIdentity bool
	Hand        bool
	Normalized  bool
	Fields      []*FieldDef
	File        string
	Line        int
}

// DisplayName is the operator's Name() return value.
func (o *OpDef) DisplayName() string {
	if o.Display != "" {
		return o.Display
	}
	return o.Name
}

// FieldDef is one operator field.
type FieldDef struct {
	Name    string
	Type    string
	DXLName string // serialized attribute name; defaults per type strategy
	NoIdent bool
	Line    int
}

// RuleDef is one transformation rule declaration.
type RuleDef struct {
	Name  string
	Kind  string // exploration | implementation
	Doc   []string
	Match string // operator the pattern matches
	Check bool   // a hand-written match<Name> predicate gates Matches
	File  string
	Line  int
}

// Op returns the operator declaration with the given name, or nil.
func (c *Catalog) Op(name string) *OpDef {
	for _, o := range c.Ops {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// IdentityFields returns the fields participating in ParamHash/ParamEqual
// and DXL parameter serialization.
func (o *OpDef) IdentityFields() []*FieldDef {
	out := make([]*FieldDef, 0, len(o.Fields))
	for _, f := range o.Fields {
		if !f.NoIdent {
			out = append(out, f)
		}
	}
	return out
}

// typeStrategy describes how one DSL field type maps onto Go: the struct
// field type, and whether an identity field of this type is representable in
// fingerprints and DXL parameters.
type typeStrategy struct {
	goType       string
	identityOK   bool   // may appear as an identity field
	defaultDXL   string // "" = field name; "+Oid" = field name with Oid suffix
	importsBase  bool
	importsMD    bool
	importsProps bool
}

// typeTable maps DSL type names to strategies. Hash/equal/serialize snippets
// are generated in gen_ops.go / gen_dxl.go from the same keys.
var typeTable = map[string]typeStrategy{
	"String":       {goType: "string", identityOK: true},
	"Bool":         {goType: "bool", identityOK: true},
	"Int":          {goType: "int", identityOK: true},
	"Int64":        {goType: "int64", identityOK: true},
	"Float":        {goType: "float64", identityOK: false},
	"JoinType":     {goType: "JoinType", identityOK: true},
	"AggMode":      {goType: "AggMode", identityOK: true},
	"SubqueryKind": {goType: "SubqueryKind", identityOK: true},
	"Scalar":       {goType: "ScalarExpr", identityOK: true},
	"ScalarList":   {goType: "[]ScalarExpr", identityOK: true},
	"Relation":     {goType: "*md.Relation", identityOK: true, defaultDXL: "+Oid", importsMD: true},
	"Index":        {goType: "*md.Index", identityOK: true, defaultDXL: "+Oid", importsMD: true},
	"ColRefs":      {goType: "[]*md.ColRef", identityOK: true, importsMD: true},
	"ColID":        {goType: "base.ColID", identityOK: true, importsBase: true},
	"ColIDs":       {goType: "[]base.ColID", identityOK: true, importsBase: true},
	"ColIDLists":   {goType: "[][]base.ColID", identityOK: true, importsBase: true},
	"OrderSpec":    {goType: "props.OrderSpec", identityOK: true, importsProps: true},
	"ProjElems":    {goType: "[]ProjElem", identityOK: true},
	"AggElems":     {goType: "[]AggElem", identityOK: true},
	"WinElems":     {goType: "[]WinElem", identityOK: true},
	"ColIDMap":     {goType: "map[base.ColID]base.ColID", identityOK: false, importsBase: true},
	"PlanExpr":     {goType: "*Expr", identityOK: false},
}

// dxlAttr returns the serialized attribute name of an identity field.
func dxlAttr(f *FieldDef) string {
	if f.DXLName != "" {
		return f.DXLName
	}
	st := typeTable[f.Type]
	if st.defaultDXL == "+Oid" {
		return f.Name + "Oid"
	}
	return f.Name
}

// validate checks catalog-level invariants the generators rely on.
func (c *Catalog) validate() error {
	opNames := make(map[string]*OpDef)
	for _, o := range c.Ops {
		if opNames[o.Name] != nil {
			return fmt.Errorf("%s:%d: operator %s redeclared", o.File, o.Line, o.Name)
		}
		opNames[o.Name] = o
		for _, f := range o.Fields {
			st, ok := typeTable[f.Type]
			if !ok {
				return fmt.Errorf("%s:%d: field %s.%s has unknown type %s", o.File, f.Line, o.Name, f.Name, f.Type)
			}
			if !f.NoIdent && !st.identityOK {
				return fmt.Errorf("%s:%d: field %s.%s: type %s cannot be an identity field (mark it noident)",
					o.File, f.Line, o.Name, f.Name, f.Type)
			}
		}
	}
	ruleNames := make(map[string]bool)
	matched := make(map[string]bool)
	for _, r := range c.Rules {
		if ruleNames[r.Name] {
			return fmt.Errorf("%s:%d: rule %s redeclared", r.File, r.Line, r.Name)
		}
		ruleNames[r.Name] = true
		op := opNames[r.Match]
		if op == nil {
			return fmt.Errorf("%s:%d: rule %s matches undeclared operator %s", r.File, r.Line, r.Name, r.Match)
		}
		if op.Kind != KindLogical {
			return fmt.Errorf("%s:%d: rule %s matches %s operator %s (rules fire on logical expressions)",
				r.File, r.Line, r.Name, op.Kind, r.Match)
		}
		matched[r.Match] = true
	}
	for _, o := range c.Ops {
		if o.Kind == KindLogical && !matched[o.Name] {
			return fmt.Errorf("%s:%d: logical operator %s is matched by no rule, so no plan can implement it", o.File, o.Line, o.Name)
		}
		if (o.Kind == KindScalar) != o.Hand {
			return fmt.Errorf("%s:%d: operator %s: scalar operators, and only they, are Hand", o.File, o.Line, o.Name)
		}
	}
	return nil
}

// Operator kinds.
const (
	KindLogical  = "logical"
	KindPhysical = "physical"
	KindEnforcer = "enforcer"
	KindScalar   = "scalar"
)

// Rule kinds.
const (
	KindExploration    = "exploration"
	KindImplementation = "implementation"
)
