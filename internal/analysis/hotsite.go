package analysis

// Hot-site classification and spawn-site recording for the hot/lifetime
// walk (see hotwalk.go for the traversal and hotfacts.go for the model).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotSite classifies one warm node as a latency hazard, if it is one.
func (w *hotWalk) hotSite(n ast.Node, stack []ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		w.hotCall(n, stack)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && w.isStringExpr(n) && !w.isConst(n) {
			w.site(n.Pos(), HotConcat, "string concatenation")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && w.isStringExpr(n.Lhs[0]) {
			w.site(n.Pos(), HotConcat, "string concatenation (+=)")
		}
	case *ast.DeferStmt:
		if hasLoopAncestor(stack) {
			w.site(n.Pos(), HotDefer, "defer inside a loop (runs at function return, accumulates)")
		}
	case *ast.RangeStmt:
		w.hotMapRange(n)
	case *ast.FuncLit:
		w.hotClosure(n, stack)
	case *ast.UnaryExpr:
		if n.Op == token.AND && !w.trackedRHS[n] {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.site(n.Pos(), HotAlloc, "heap allocation: "+types.ExprString(n))
			}
		}
	case *ast.CompositeLit:
		w.hotComposite(n, stack)
	}
}

// hotCall classifies calls: fmt, unblessed locks, boxing, warm edges, and
// the untracked make/new allocations.
func (w *hotWalk) hotCall(call *ast.CallExpr, stack []ast.Node) {
	if w.hotBuiltinAlloc(call) {
		return
	}
	// Interface dispatch: record the warm interface edge; boxing of the
	// arguments is checked below like any other call.
	if id, _ := ifaceCall(w.pkg, call); id != "" {
		w.warmIface[id] = true
	}
	if fn, _ := calleeObjPkg(w.pkg, call).(*types.Func); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			w.site(call.Pos(), HotFmt, "call to fmt."+fn.Name())
		}
		// A `go f()` statement hands f to another goroutine; f's body is not
		// on this function's latency path.
		if len(stack) == 0 || !isGoStmt(stack[len(stack)-1]) {
			w.warm[fn.FullName()] = true
		}
	}
	w.hotLock(call)
	w.hotBoxing(call)
}

func isGoStmt(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }

// hotBuiltinAlloc flags make/new allocations that are not escape-tracked:
// map and channel makes always allocate; slice makes and new(T) allocate
// unless bound to a non-escaping local (those are seeded in seedLocals and
// reported only on escape).
func (w *hotWalk) hotBuiltinAlloc(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil || obj != types.Universe.Lookup(id.Name) {
		return false
	}
	switch id.Name {
	case "make":
		if len(call.Args) == 0 {
			return false
		}
		t := w.pkg.Info.TypeOf(call.Args[0])
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Map:
			w.site(call.Pos(), HotAlloc, "map allocation: "+types.ExprString(call))
		case *types.Chan:
			w.site(call.Pos(), HotAlloc, "channel allocation: "+types.ExprString(call))
		case *types.Slice:
			if !w.trackedRHS[call] {
				w.site(call.Pos(), HotAlloc, "heap allocation: "+types.ExprString(call))
			}
		}
		return true
	case "new":
		if !w.trackedRHS[call] {
			w.site(call.Pos(), HotAlloc, "heap allocation: "+types.ExprString(call))
		}
		return true
	}
	return false
}

// hotComposite flags slice and map composite literals (their backing store
// is heap-allocated) unless escape-tracked; value struct and array literals
// are stack-constructed and exempt.
func (w *hotWalk) hotComposite(lit *ast.CompositeLit, stack []ast.Node) {
	t := w.pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		w.site(lit.Pos(), HotAlloc, "map literal allocation")
	case *types.Slice:
		if !w.trackedRHS[lit] {
			w.site(lit.Pos(), HotAlloc, "slice literal allocation")
		}
	}
}

// hotLock flags Lock/RLock on sync mutexes. Accessor-pin functions (the
// Memo index protocol the locks analyzer pins) are exempt wholesale; everything
// else needs a :lock allowance on the annotated root.
func (w *hotWalk) hotLock(call *ast.CallExpr) {
	if w.blessed {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return
	}
	t := w.pkg.Info.TypeOf(sel.X)
	if isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex") {
		w.site(call.Pos(), HotLock, "mutex acquisition "+types.ExprString(sel.X)+"."+sel.Sel.Name+"() outside the accessor pins")
	}
}

// hotBoxing flags concrete, non-pointer-shaped arguments passed to interface
// parameters: the conversion heap-allocates the value. Variadic tails are
// skipped (the fmt class already covers ...any sinks), as are nil and
// already-interface arguments.
func (w *hotWalk) hotBoxing(call *ast.CallExpr) {
	tv, ok := w.pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		if !types.IsInterface(params.At(i).Type()) {
			continue
		}
		at := w.pkg.Info.TypeOf(call.Args[i])
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		w.site(call.Args[i].Pos(), HotBox,
			"interface boxing: "+at.String()+" argument boxed into "+params.At(i).Type().String())
	}
}

// isPointerShaped reports types whose interface representation needs no
// allocation (single pointer word).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// hotMapRange flags map iteration whose body feeds ordered output (appends
// to a slice or sends on a channel): map order is randomized per iteration,
// so the output order is nondeterministic.
func (w *hotWalk) hotMapRange(n *ast.RangeStmt) {
	t := w.pkg.Info.TypeOf(n.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	feeds := false
	ast.Inspect(n.Body, func(b ast.Node) bool {
		switch b := b.(type) {
		case *ast.SendStmt:
			feeds = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(b.Fun).(*ast.Ident); ok && id.Name == "append" {
				feeds = true
			}
		}
		return !feeds
	})
	if feeds {
		w.site(n.Pos(), HotMapOrder, "map iteration feeds ordered output (nondeterministic order, defeats plan stability)")
	}
}

// hotClosure flags capturing function literals: each one heap-allocates its
// environment. Non-capturing literals and immediately-invoked literals are
// exempt (no environment / does not outlive the statement).
func (w *hotWalk) hotClosure(lit *ast.FuncLit, stack []ast.Node) {
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == lit {
			// Immediately invoked — exempt unless deferred or spawned, where
			// the closure value outlives the statement.
			if len(stack) < 2 {
				return
			}
			switch stack[len(stack)-2].(type) {
			case *ast.DeferStmt, *ast.GoStmt:
			default:
				return
			}
		}
	}
	caps := w.literalCaptures(lit, nil)
	if len(caps) == 0 {
		return
	}
	w.site(lit.Pos(), HotClosure, "closure captures "+strings.Join(caps, ", "))
}

// literalCaptures returns the sorted names of enclosing-function variables
// the literal references. When loopVarObjs is non-nil, uses of those objects
// are additionally recorded with their positions into the returned issues.
func (w *hotWalk) literalCaptures(lit *ast.FuncLit, loopVars map[types.Object]bool) []string {
	caps := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pkg.Info.Uses[id]
		v, okv := obj.(*types.Var)
		if !okv || v.IsField() {
			return true
		}
		if obj.Pos() < w.fd.Pos() || obj.Pos() >= w.fd.End() {
			return true // package-level or foreign
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own local or parameter
		}
		caps[id.Name] = true
		if loopVars != nil && loopVars[obj] {
			w.curSpawn.loopVars = append(w.curSpawn.loopVars, hotIssue{id.Pos(), id.Name})
		}
		return true
	})
	return sortedKeys(caps)
}

// hasLoopAncestor reports a for/range statement among the ancestors.
func hasLoopAncestor(stack []ast.Node) bool {
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// checkEscape updates the escape state of escape-tracked locals from one use.
func (w *hotWalk) checkEscape(id *ast.Ident, stack []ast.Node) {
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	fr, ok := w.freshObjs[obj]
	if !ok || fr.escaped || len(stack) == 0 {
		return
	}
	if w.escapesHereHot(id, stack) {
		fr.escaped = true
	}
}

// escapesHereHot decides whether this use publishes the tracked value.
// Non-escaping uses: field/index/slice access, len/cap/copy/delete, growing
// itself via append, being (re)assigned, being ranged over, nil comparison.
// Everything else — call argument, return, send, composite entry, address-of,
// later append argument — escapes.
func (w *hotWalk) escapesHereHot(id *ast.Ident, stack []ast.Node) bool {
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return false
	case *ast.IndexExpr:
		return false
	case *ast.SliceExpr:
		return false
	case *ast.RangeStmt:
		if p.X == id {
			return false
		}
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return false
		}
	case *ast.IncDecStmt:
		return false
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == id {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		fn, ok := ast.Unparen(p.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		switch fn.Name {
		case "len", "cap", "copy", "delete":
			return w.pkg.Info.Uses[fn] == types.Universe.Lookup(fn.Name)
		case "append":
			if w.pkg.Info.Uses[fn] != types.Universe.Lookup("append") {
				return true
			}
			// append(x, ...) grows x in place; x as a later argument leaks.
			return len(p.Args) == 0 || p.Args[0] != id
		}
		return true
	}
	return true
}

// site appends one hot site.
func (w *hotWalk) site(pos token.Pos, class, detail string) {
	w.ff.hotSites = append(w.ff.hotSites, hotSite{pos, class, detail})
}

// isStringExpr reports a string-typed expression.
func (w *hotWalk) isStringExpr(e ast.Expr) bool {
	t := w.pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConst reports a compile-time constant expression (constant folding makes
// `"a" + "b"` free).
func (w *hotWalk) isConst(e ast.Expr) bool {
	tv, ok := w.pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// recordSpawn builds the spawn-site table entry for one `go` statement.
func (w *hotWalk) recordSpawn(gs *ast.GoStmt, stack []ast.Node) {
	sp := &SpawnFact{
		Target: "unknown",
		pos:    gs.Pos(),
	}
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		sp.Target = "func literal"
		w.curSpawn = sp
		w.literalCaptures(lit, loopVarObjs(w.pkg, stack))
		w.spawnLitFacts(lit, sp)
		w.curSpawn = nil
	} else if fn, _ := calleeObjPkg(w.pkg, gs.Call).(*types.Func); fn != nil {
		sp.Target = fn.FullName()
	}
	w.ff.Spawns = append(w.ff.Spawns, sp)
}

// loopVarObjs collects the loop variables of every for/range ancestor: a
// spawned literal capturing one is the pre-Go-1.22 iteration-sharing hazard.
func loopVarObjs(pkg *Package, stack []ast.Node) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, anc := range stack {
		switch anc := anc.(type) {
		case *ast.ForStmt:
			if init, ok := anc.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, l := range init.Lhs {
					add(l)
				}
			}
		case *ast.RangeStmt:
			if anc.Tok == token.DEFINE {
				add(anc.Key)
				add(anc.Value)
			}
		}
	}
	return vars
}

// spawnLitFacts summarizes the spawned literal's body: its own stop facts,
// static calls, polling sleeps, and cancellation-free sends.
func (w *hotWalk) spawnLitFacts(lit *ast.FuncLit, sp *SpawnFact) {
	calls := make(map[string]bool)
	var stack []ast.Node
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if w.isWGDone(n) {
				sp.wgDone = true
			}
			if w.isTimeSleep(n) && loopWithoutSelect(stack) {
				sp.sleeps = append(sp.sleeps, n.Pos())
			}
			if fn, _ := calleeObjPkg(w.pkg, n).(*types.Func); fn != nil {
				calls[fn.FullName()] = true
			}
		case *ast.SelectStmt:
			if selectHasReceive(n) {
				sp.sel = true
			}
		case *ast.ForStmt:
			if n.Cond == nil && !containsSelect(n.Body) {
				sp.unbound = true
			}
		case *ast.RangeStmt:
			w.rangeStop(n, func(fieldKey string) {
				sp.chanRanges = append(sp.chanRanges, chanRange{fieldKey: fieldKey})
			}, func(obj types.Object) {
				sp.localRanges = append(sp.localRanges, obj)
			})
		case *ast.SendStmt:
			w.spawnSend(n, sp, stack)
		}
		stack = append(stack, n)
		return true
	})
	sp.calls = sortedKeys(calls)
}

// spawnSend flags a send with no cancellation arm: outside any select (or in
// a single-arm select) on a channel known to be unbuffered. If the receiver
// goes away, the spawned goroutine blocks forever.
func (w *hotWalk) spawnSend(send *ast.SendStmt, sp *SpawnFact, stack []ast.Node) {
	for _, anc := range stack {
		if sel, ok := anc.(*ast.SelectStmt); ok && len(sel.Body.List) >= 2 {
			return
		}
	}
	id, ok := ast.Unparen(send.Chan).(*ast.Ident)
	if !ok {
		return
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	buffered, known := w.chanBuf[obj]
	if known && !buffered {
		sp.sends = append(sp.sends, send.Pos())
	}
}
