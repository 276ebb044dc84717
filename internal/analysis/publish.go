package analysis

// publish.go: the publish analyzer and the parameter-mutation facts behind
// it. One rule: once an object is published — other goroutines can reach
// it — the publishing function must not plainly write through it. The fix
// is rebind-must-copy (mutate a copy and publish that), or wiring the object
// completely before publishing it. Publication is one of three things:
//
//  1. handing a slice to Memo.InsertExpr, which retains it in the new group
//     expression (a later write would corrupt the Memo's duplicate-detection
//     fingerprints);
//  2. an atomic Store/Swap/CompareAndSwap, which publishes every object the
//     function can share — parameters, receivers, non-local values and
//     locals that have escaped — so all wiring must precede it
//     ("publish-then-wire" is the bug class);
//  3. a registered publication site: a plan-cache shard insert or lookup
//     hit, a singleflight result or store, a Memo group publication, a JSON
//     response snapshot — and every memo.Group/GroupExpr/Memo/OptContext
//     outside internal/memo, which the Memo publishes when it creates them.
//
// Helper calls count too: passing a published object to a function whose
// facts say it writes the corresponding parameter is a write at the call
// site.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Publish is the published-object immutability analyzer.
var Publish = &Analyzer{
	Name: "publish",
	Doc: "flags plain writes to an object after it was published: handed to " +
		"Memo.InsertExpr, made reachable by an atomic Store/Swap/CompareAndSwap, " +
		"or passed through a registered publication site (plan-cache insert or " +
		"lookup, singleflight result, memo group publication, JSON response " +
		"snapshot, any memo structure outside internal/memo)",
	Run: runPublish,
}

func runPublish(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPublished(p, fd)
			}
		}
	}
}

// pubWalk is the state of one declaration's source-order walk.
type pubWalk struct {
	p         *Pass
	published map[types.Object]string // object -> how it was published
	fresh     map[types.Object]bool   // locals born from a fresh allocation
	escaped   map[types.Object]bool   // fresh locals handed elsewhere so far
	storeLine int                     // line of the first atomic store, 0 before it
}

// checkPublished walks one declaration in source order, tracking which
// objects are published and reporting plain writes and mutating calls that
// follow. Rebinding the bare identifier ends the tracking — that is exactly
// the rebind-must-copy idiom.
func checkPublished(p *Pass, fd *ast.FuncDecl) {
	w := &pubWalk{
		p:         p,
		published: make(map[types.Object]string),
		fresh:     freshLocals(p.Pkg, fd.Body),
		escaped:   make(map[types.Object]bool),
	}
	info := p.Pkg.Info
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; w.fresh[obj] && escapesHere(stack, n) {
				w.escaped[obj] = true
			}
		case *ast.CallExpr:
			w.call(n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				w.assign(lhs, rhs)
			}
			// Result publication: a call returning an already-shared object
			// (cache lookup hit, singleflight result) publishes the bound name.
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if site, idx := resultSite(p.Pkg, call); site != "" && idx < len(n.Lhs) {
						w.publish(n.Lhs[idx], site)
					}
				}
			}
		case *ast.IncDecStmt:
			w.written(n.X)
		}
		stack = append(stack, n)
		return true
	})
}

// objOf returns the object a bare identifier denotes, or nil.
func (w *pubWalk) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return w.p.ObjectOf(id)
}

// publish marks the object a bare identifier denotes as published.
func (w *pubWalk) publish(e ast.Expr, site string) {
	if o := w.objOf(e); o != nil {
		if _, ok := o.Type().Underlying().(*types.Basic); !ok {
			w.published[o] = site // basic values are copied on publication
		}
	}
}

// call handles one call: an atomic store starts the store rule, a call that
// writes through a published argument is reported, and a publication site
// publishes its argument.
func (w *pubWalk) call(call *ast.CallExpr) {
	pkg := w.p.Pkg
	if w.storeLine == 0 && isAtomicStoreCall(pkg, call) {
		w.storeLine = pkg.Fset.Position(call.Pos()).Line
	}
	fn, _ := calleeObjPkg(pkg, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	mutated := func(e ast.Expr, idx int) {
		if site, ok := w.published[w.objOf(e)]; ok && w.p.Facts.mutatesArg(fn.FullName(), idx) {
			w.p.Reportf(call.Pos(), "call to %s mutates %s after it escaped through %s: copy before mutating (rebind-must-copy)",
				fn.Name(), ast.Unparen(e).(*ast.Ident).Name, site)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
		mutated(sel.X, -1)
	}
	for i, arg := range call.Args {
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			break // variadic slots arrive as a fresh slice
		}
		mutated(arg, i)
	}
	if site, idx := callArgSite(fn); site != "" && idx < len(call.Args) {
		w.publish(call.Args[idx], site)
	}
}

// assign handles one lhs = rhs pair of an assignment.
func (w *pubWalk) assign(lhs, rhs ast.Expr) {
	if o := w.objOf(lhs); o != nil {
		// A bare rebind ends the tracking, except x = append(x, ...), which
		// can write into the published backing array.
		if site, ok := w.published[o]; ok && isSelfAppend(w.p, lhs, rhs) {
			w.p.Reportf(lhs.Pos(), "append to %s after it escaped through %s may write into the shared backing array",
				o.Name(), site)
		}
		delete(w.published, o)
		return
	}
	w.written(lhs)
	// Field-store publication: assigning into flight.entry hands the entry to
	// every waiter blocked on the flight.
	if rhs != nil && fieldStoreSite(w.p.Pkg, lhs) {
		w.publish(rhs, "a singleflight publication")
	}
}

// written reports a plain write through lhs (a field, element or pointee
// store) when its root object is published.
func (w *pubWalk) written(lhs ast.Expr) {
	pkg := w.p.Pkg
	target := ast.Unparen(lhs)
	if idx, ok := target.(*ast.IndexExpr); ok {
		target = ast.Unparen(idx.X)
	}
	if sel, ok := target.(*ast.SelectorExpr); ok && pkg.PkgPath != memoPkgPath {
		for _, name := range [...]string{"Group", "GroupExpr", "Memo", "OptContext"} {
			if isNamed(pkg.Info.TypeOf(sel.X), memoPkgPath, name) {
				w.p.Reportf(lhs.Pos(), "write to memo.%s.%s outside internal/memo: memo structures are published when the Memo creates them", name, sel.Sel.Name)
				return
			}
		}
	}
	id := rootIdent(lhs)
	if id == nil {
		return
	}
	obj := pkg.Info.Uses[id]
	if site, ok := w.published[obj]; ok {
		w.p.Reportf(lhs.Pos(), "%s is written after it escaped through %s: the object is shared with other goroutines; rebind a copy instead (rebind-must-copy)",
			id.Name, site)
		return
	}
	// The store rule covers direct field writes only: index writes are the
	// Memo's directory-slot pattern, whose slots become visible through a
	// later atomic counter store rather than through the write itself.
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if w.storeLine == 0 || !ok || ast.Unparen(sel.X) != ast.Expr(id) || isAtomicType(pkg.Info.TypeOf(sel)) {
		return
	}
	if obj != nil && (!w.fresh[obj] || w.escaped[obj]) {
		w.p.Reportf(lhs.Pos(), "plain write to %s.%s after atomic publication at line %d; writes to shared state must precede the store that publishes them",
			id.Name, sel.Sel.Name, w.storeLine)
	}
}

// isSelfAppend reports lhs = append(lhs, ...).
func isSelfAppend(p *Pass, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	arg, ok2 := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && ok2 && fun.Name == "append" && p.ObjectOf(arg) == p.ObjectOf(ast.Unparen(lhs).(*ast.Ident))
}

// callArgSite matches publication sites where an argument escapes: the
// Memo retains InsertExpr's children, the plan-cache shard insert and the
// Memo group publication share the object with every later cache/memo
// reader, and a JSON snapshot hands it to the encoder.
func callArgSite(fn *types.Func) (string, int) {
	recv, path := recvTypeName(fn), fn.Pkg().Path()
	switch {
	case fn.Name() == "InsertExpr" && path == memoPkgPath:
		return "Memo.InsertExpr, which retains it", 1
	case fn.Name() == "Admit" && recv == "Cache" && isPkg(path, plancachePkgPath):
		return "a plan-cache shard insert", 1
	case fn.Name() == "publishGroup" && recv == "Memo" && isPkg(path, memoPkgPath):
		return "a memo group publication", 0
	case fn.Name() == "writeJSON" && recv == "" && isPkg(path, servePkgPath):
		return "a JSON response snapshot", 2
	}
	return "", 0
}

// resultSite matches publication sites where a call result is an object other
// goroutines already hold: a plan-cache lookup hit and a singleflight result
// are shared with every other caller that got the same entry.
func resultSite(pkg *Package, call *ast.CallExpr) (string, int) {
	fn, _ := calleeObjPkg(pkg, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || !isPkg(fn.Pkg().Path(), plancachePkgPath) {
		return "", 0
	}
	switch recv := recvTypeName(fn); {
	case fn.Name() == "Lookup" && recv == "Cache":
		return "a plan-cache lookup", 0
	case fn.Name() == "Do" && recv == "FlightGroup":
		return "a singleflight result", 0
	}
	return "", 0
}

// fieldStoreSite matches stores that publish their right-hand side:
// assigning flight.entry makes the entry visible to every waiter of the
// flight once the done channel closes.
func fieldStoreSite(pkg *Package, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "entry" {
		return false
	}
	n := namedType(pkg.Info.TypeOf(sel.X))
	return n != nil && n.Obj().Name() == "flight" && n.Obj().Pkg() != nil && isPkg(n.Obj().Pkg().Path(), plancachePkgPath)
}

// recvTypeName returns the name of the method's receiver named type, or "".
func recvTypeName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedType(recv.Type()); n != nil {
			return n.Obj().Name()
		}
	}
	return ""
}

// isAtomicStoreCall reports a publication point: a Store/Swap/CompareAndSwap
// method on a sync/atomic value, or the old-style function equivalents.
func isAtomicStoreCall(pkg *Package, call *ast.CallExpr) bool {
	fn, _ := calleeObjPkg(pkg, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}

// freshLocals returns the locals bound by v := &T{...} | new(T) | T{...}:
// no other goroutine can see them until they escape.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" || pkg.Info.Defs[id] == nil {
				continue
			}
			switch e := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.UnaryExpr:
				_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
				fresh[pkg.Info.Defs[id]] = e.Op == token.AND && lit
			case *ast.CompositeLit:
				fresh[pkg.Info.Defs[id]] = true
			case *ast.CallExpr:
				fun, ok := ast.Unparen(e.Fun).(*ast.Ident)
				fresh[pkg.Info.Defs[id]] = ok && pkg.Info.Uses[fun] == types.Universe.Lookup("new")
			}
		}
		return true
	})
	return fresh
}

// escapesHere reports whether this use of a fresh local hands it to code
// that may retain it: anything except selecting a field on it (v.f, whether
// read, written, or used as an atomic method receiver) or being the LHS of
// its own definition.
func escapesHere(stack []ast.Node, id *ast.Ident) bool {
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		return ast.Unparen(p.X) != ast.Expr(id)
	case *ast.AssignStmt:
		return p.Tok != token.DEFINE || len(p.Lhs) == 0 || !containsExpr(p.Lhs, id)
	}
	return true
}

func containsExpr(list []ast.Expr, e ast.Expr) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// rootIdent unwraps selector/index/star/paren chains to the base identifier,
// or nil (e.g. for a call result base).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// paramPassEdge records one argument position: the caller's parameter
// callerIdx flows into calleeIdx of callee (-1 = the callee's receiver).
type paramPassEdge struct {
	callee    string
	callerIdx int
	calleeIdx int
}

// summarizeMutations records which of the declaration's parameters are
// plainly written through (receiver = index -1) and which are handed onward
// to other functions as arguments or receivers: if setCost(e) writes e.Cost
// and admit(x) calls setCost(x), then admit mutates its parameter too.
func (f *Facts) summarizeMutations(pkg *Package, fd *ast.FuncDecl, ff *FuncFacts) {
	if fd.Body == nil {
		return
	}
	params := make(map[types.Object]int)
	if fd.Recv != nil && len(fd.Recv.List[0].Names) == 1 {
		params[pkg.Info.Defs[fd.Recv.List[0].Names[0]]] = -1
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name != "_" {
				params[pkg.Info.Defs[name]] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	delete(params, nil)
	param := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		i, ok := params[pkg.Info.Uses[id]]
		return i, ok
	}
	ff.mutParams = make(map[int]bool)
	mark := func(e ast.Expr) {
		// A write through the parameter (e.f = v, e[k] = v, e.f.g = v)
		// mutates it; rebinding the bare identifier does not.
		if _, bare := ast.Unparen(e).(*ast.Ident); bare {
			return
		}
		if id := rootIdent(e); id != nil {
			if i, ok := params[pkg.Info.Uses[id]]; ok {
				ff.mutParams[i] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CallExpr:
			fn, _ := calleeObjPkg(pkg, n).(*types.Func)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig := fn.Type().(*types.Signature)
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
				if i, ok := param(sel.X); ok {
					ff.paramPass = append(ff.paramPass, paramPassEdge{fn.FullName(), i, -1})
				}
			}
			for ai, arg := range n.Args {
				if sig.Variadic() && ai >= sig.Params().Len()-1 {
					break // a variadic slot is a fresh slice in the callee
				}
				if i, ok := param(arg); ok {
					ff.paramPass = append(ff.paramPass, paramPassEdge{fn.FullName(), i, ai})
				}
			}
		}
		return true
	})
}

// finalizeMutations closes parameter mutation over the pass-through edges and
// publishes the result as MutatesRecv / MutatesParams.
func (f *Facts) finalizeMutations() {
	keys := factKeys(f)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			ff := f.Funcs[k]
			for _, e := range ff.paramPass {
				if cf := f.Funcs[e.callee]; cf != nil && cf.mutParams[e.calleeIdx] && !ff.mutParams[e.callerIdx] {
					ff.mutParams[e.callerIdx] = true
					changed = true
				}
			}
		}
	}
	for _, k := range keys {
		ff := f.Funcs[k]
		for i := range ff.mutParams {
			if i == -1 {
				ff.MutatesRecv = true
			} else {
				ff.MutatesParams = append(ff.MutatesParams, i)
			}
		}
		sort.Ints(ff.MutatesParams)
	}
}

// mutatesArg reports whether calling fn with an object at argument position
// idx (-1 = receiver) can plainly write through it.
func (f *Facts) mutatesArg(key string, idx int) bool {
	ff := f.Funcs[key]
	if ff == nil {
		return false
	}
	if idx == -1 {
		return ff.MutatesRecv
	}
	return slices.Contains(ff.MutatesParams, idx)
}
