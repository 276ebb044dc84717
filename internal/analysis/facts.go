package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncFacts is the interprocedural summary of one function: what the
// analyzers need to know about a callee without re-walking its body.
// Function literals are folded into their enclosing declaration — a closure
// passed to a helper shares the fate of the function that built it.
type FuncFacts struct {
	// Key is the canonical function identity, types.Func.FullName():
	// "orca/internal/md.(*Accessor).Get".
	Key string
	// PkgPath is the defining package.
	PkgPath string

	// CtxParam is the name of the context.Context parameter ("" if none);
	// UsesCtx reports whether the body references it. A named, unused ctx
	// parameter is a dropped context (ctxflow).
	CtxParam string
	UsesCtx  bool

	// Calls are the statically-resolved callee keys, sorted and deduplicated.
	Calls []string
	// IfaceCalls are interface-dispatch edges as "pkgpath.Iface.Method",
	// devirtualized through Facts.IfaceImpls during reachability.
	IfaceCalls []string

	// ReturnsError reports an error in the result tuple; CallsErrSource
	// reports a direct call to a gpos/dxl function returning an error.
	// CarriesError is the transitive closure: the function's error result
	// (directly or through callees) can carry a gpos/dxl failure, so
	// discarding it hides optimizer failures (errdrop).
	ReturnsError   bool
	CallsErrSource bool
	CarriesError   bool

	// Hotpath marks a //orcavet:hotpath annotation; Coldpath marks a
	// //orcavet:coldpath annotation: a declared boundary the hot-path
	// closure does not cross.
	Hotpath  bool
	Coldpath bool

	// Stop-path facts for golifetime: the body signals a sync.WaitGroup,
	// blocks in a select with a receive arm, or contains a loop with no
	// provable bound.
	WGDone       bool
	CancelSelect bool
	Unbounded    bool
	// Spawns is golifetime's spawn-site table: one entry per `go` statement
	// in the body (function literals included).
	Spawns []*SpawnFact

	// RecvLocks lists receiver mutex fields the method write-locks ("mu"
	// for m.mu.Lock()): a call into such a method while the caller holds
	// the same field self-deadlocks (Go mutexes do not reenter).
	// LockAcquires lists the lock classes the body acquires directly
	// (sorted, deferred acquires excluded); TransLocks is the closure over
	// static and devirtualized call edges — every class the function can
	// take somewhere below it. locks uses these to order lock acquisitions
	// globally.
	RecvLocks    []string
	LockAcquires []string
	TransLocks   []string

	// MutatesRecv / MutatesParams report parameters (receiver included) the
	// function plainly writes through, closed over argument-passing edges.
	// publish uses them to catch mutation of published objects via helpers.
	MutatesRecv   bool
	MutatesParams []int

	// Positions are fset-relative; kept for reporting.
	ctxParamPos token.Pos
	backgrounds []token.Pos // context.Background()/TODO() call sites
	provCalls   []token.Pos // md.Provider interface-method call sites

	// Hot/lifetime internals (computed in hotfacts.go).
	hotAllow     map[string]bool
	hotSites     []hotSite
	warmCalls    []string
	warmIface    []string
	chanRanges   []chanRange
	sleepPolls   []token.Pos
	loopsForever bool

	// lockUnits are the lock timelines (locks.go): the declaration's own
	// body first, then one per function literal that does not run as a
	// deferred call. mutParams and paramPass are the parameter-mutation
	// summary behind MutatesRecv/MutatesParams (publish.go).
	lockUnits [][]lockOp
	mutParams map[int]bool
	paramPass []paramPassEdge
}

// Facts is the module-wide interprocedural store shared by all analyzers in
// one run.
type Facts struct {
	cfg *Config
	// Funcs maps function keys to their summaries.
	Funcs map[string]*FuncFacts
	// IfaceImpls maps "pkgpath.Iface.Method" to the function keys of the
	// concrete implementations visible in the loaded packages.
	IfaceImpls map[string][]string
	// Roots are entry-point functions (exported functions of root packages);
	// Reachable is the call-graph closure from Roots through Calls and
	// devirtualized IfaceCalls.
	Roots     map[string]bool
	Reachable map[string]bool

	// Hot/lifetime stores (see hotfacts.go). closedChans records channel
	// fields closed anywhere in the module; hotIssues holds malformed or
	// floating hotpath directives.
	closedChans map[string]bool
	hotIssues   []hotIssue
}

// ComputeFacts builds the facts store over the loaded packages. The result
// is deterministic: maps are populated from sorted traversals, so the
// findings do not depend on package order.
func ComputeFacts(pkgs []*Package, cfg *Config) *Facts {
	f := &Facts{
		cfg:         cfg,
		Funcs:       make(map[string]*FuncFacts),
		IfaceImpls:  make(map[string][]string),
		Roots:       make(map[string]bool),
		Reachable:   make(map[string]bool),
		closedChans: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		f.collectPkg(pkg)
	}
	f.collectIfaceImpls(pkgs)
	f.computeCarriers()
	f.computeReachability()
	f.finalizeHotLife()
	f.finalizeLockOrder()
	f.finalizeMutations()
	return f
}

// collectPkg summarizes every function declaration of one package.
func (f *Facts) collectPkg(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ff := &FuncFacts{Key: fn.FullName(), PkgPath: pkg.PkgPath}
			f.Funcs[ff.Key] = ff
			f.summarizeBody(pkg, fd, fn, ff)
			f.summarizeHotLife(pkg, fd, fn, ff)
			f.summarizeLockOps(pkg, fd, ff)
			f.summarizeMutations(pkg, fd, ff)
			// Method names count as exported on their own.
			if f.cfg.isRootPkg(pkg.PkgPath) && fd.Name.IsExported() {
				f.Roots[ff.Key] = true
			}
		}
		f.collectHotDirectives(pkg, file)
	}
}

// summarizeBody fills the call edges and context facts of one declaration
// (function literals included).
func (f *Facts) summarizeBody(pkg *Package, fd *ast.FuncDecl, fn *types.Func, ff *FuncFacts) {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			ff.ReturnsError = true
		}
	}
	var ctxObj types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if !isNamed(pkg.Info.TypeOf(field.Type), "context", "Context") {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				ff.CtxParam = name.Name
				ff.ctxParamPos = name.Pos()
				ctxObj = pkg.Info.Defs[name]
			}
		}
	}
	if fd.Body == nil {
		return
	}
	calls := make(map[string]bool)
	ifaceCalls := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if ctxObj != nil && pkg.Info.Uses[n] == ctxObj {
				ff.UsesCtx = true
			}
		case *ast.CallExpr:
			f.summarizeCall(pkg, n, ff, calls, ifaceCalls)
		}
		return true
	})
	ff.Calls = sortedKeys(calls)
	ff.IfaceCalls = sortedKeys(ifaceCalls)
}

// summarizeCall records one call expression's facts.
func (f *Facts) summarizeCall(pkg *Package, call *ast.CallExpr, ff *FuncFacts, calls, ifaceCalls map[string]bool) {
	// Interface dispatch: the selection's receiver is an interface type.
	if id, ok := ifaceCall(pkg, call); ok {
		if id != "" {
			ifaceCalls[id] = true
		}
		if f.isProviderCall(id) {
			ff.provCalls = append(ff.provCalls, call.Pos())
		}
		return
	}
	fn, _ := calleeObjPkg(pkg, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "context":
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			ff.backgrounds = append(ff.backgrounds, call.Pos())
		}
	case gposPkgPath, dxlPkgPath:
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Results().Len(); i++ {
			if isErrorType(sig.Results().At(i).Type()) {
				ff.CallsErrSource = true
			}
		}
	}
	calls[fn.FullName()] = true
}

// ifaceCall reports whether a call dispatches through an interface, and
// renders the method as "pkgpath.Iface.Method" ("" for anonymous
// interfaces).
func ifaceCall(pkg *Package, call *ast.CallExpr) (id string, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !types.IsInterface(s.Recv()) {
		return "", false
	}
	if n := namedType(s.Recv()); n != nil && n.Obj().Pkg() != nil {
		id = n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + sel.Sel.Name
	}
	return id, true
}

// isProviderCall reports an md.Provider lookup: calls through it go to the
// catalog backend and can stall for the full lookup timeout.
func (f *Facts) isProviderCall(ifaceID string) bool {
	prefix := f.cfg.MDPkgPath + ".Provider."
	return len(ifaceID) > len(prefix) && ifaceID[:len(prefix)] == prefix
}

// isAtomicType reports a sync/atomic named type (Int64, Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// fieldKey renders a selector resolving to a named struct's field as
// "pkgpath.Type.field", or "".
func fieldKey(pkg *Package, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	n := namedType(s.Recv())
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + sel.Sel.Name
}

// collectIfaceImpls devirtualizes: for every named interface and every named
// concrete type in the loaded packages, record which methods implement which
// interface methods.
func (f *Facts) collectIfaceImpls(pkgs []*Package) {
	type iface struct {
		id string // pkgpath.Name
		it *types.Interface
	}
	var ifaces []iface
	var concretes []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, iface{pkg.PkgPath + "." + name, it})
				}
			} else {
				concretes = append(concretes, named)
			}
		}
	}
	for _, ic := range ifaces {
		for _, c := range concretes {
			impl := types.Type(c)
			if !types.Implements(impl, ic.it) {
				impl = types.NewPointer(c)
				if !types.Implements(impl, ic.it) {
					continue
				}
			}
			ms := types.NewMethodSet(impl)
			for i := 0; i < ic.it.NumMethods(); i++ {
				m := ic.it.Method(i)
				sel := ms.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					continue
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					id := ic.id + "." + m.Name()
					f.IfaceImpls[id] = append(f.IfaceImpls[id], fn.FullName())
				}
			}
		}
	}
	for id := range f.IfaceImpls {
		sort.Strings(f.IfaceImpls[id])
	}
}

// computeCarriers closes CarriesError: a function carries a gpos/dxl error
// when it returns an error and (directly calls an error-returning gpos/dxl
// function, or calls a carrier). gpos/dxl's own functions are sources, not
// carriers — errdrop handles them directly.
func (f *Facts) computeCarriers() {
	keys := factKeys(f)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			ff := f.Funcs[k]
			if ff.CarriesError || !ff.ReturnsError ||
				ff.PkgPath == gposPkgPath || ff.PkgPath == dxlPkgPath {
				continue
			}
			carries := ff.CallsErrSource
			for _, c := range ff.Calls {
				if cf := f.Funcs[c]; !carries && cf != nil && cf.CarriesError {
					carries = true
				}
			}
			if carries {
				ff.CarriesError = true
				changed = true
			}
		}
	}
}

// computeReachability closes Reachable from Roots over static and
// devirtualized interface call edges.
func (f *Facts) computeReachability() {
	queue := sortedKeys(f.Roots)
	for _, k := range queue {
		f.Reachable[k] = true
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		ff := f.Funcs[k]
		if ff == nil {
			continue
		}
		visit := func(callee string) {
			if !f.Reachable[callee] {
				f.Reachable[callee] = true
				queue = append(queue, callee)
			}
		}
		for _, c := range ff.Calls {
			visit(c)
		}
		for _, ic := range ff.IfaceCalls {
			for _, impl := range f.IfaceImpls[ic] {
				visit(impl)
			}
		}
	}
}

// Lookup returns the facts for a resolved function object, or nil.
func (f *Facts) Lookup(fn *types.Func) *FuncFacts {
	if fn == nil {
		return nil
	}
	return f.Funcs[fn.FullName()]
}

// factKeys returns the function keys in deterministic order.
func factKeys(f *Facts) []string {
	return sortedKeys(f.Funcs)
}

// sortedKeys returns the map's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
