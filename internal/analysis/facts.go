package analysis

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncFacts is the exported interprocedural summary of one function: what
// the analyzers need to know about a callee without re-walking its body.
// Function literals are folded into their enclosing declaration — a closure
// passed to a helper shares the fate of the function that built it.
type FuncFacts struct {
	// Key is the canonical function identity, types.Func.FullName():
	// "orca/internal/md.(*Accessor).Get".
	Key string `json:"key"`
	// PkgPath is the defining package.
	PkgPath string `json:"pkg"`
	// Exported reports an exported name (method names count on their own).
	Exported bool `json:"exported,omitempty"`

	// CtxParam is the name of the context.Context parameter ("" if none);
	// UsesCtx reports whether the body references it. A named, unused ctx
	// parameter is a dropped context (ctxflow).
	CtxParam string `json:"ctxParam,omitempty"`
	UsesCtx  bool   `json:"usesCtx,omitempty"`

	// Calls are the statically-resolved callee keys, sorted and deduplicated.
	Calls []string `json:"calls,omitempty"`
	// IfaceCalls are interface-dispatch edges as "pkgpath.Iface.Method",
	// devirtualized through Facts.IfaceImpls during reachability.
	IfaceCalls []string `json:"ifaceCalls,omitempty"`

	// ReturnsError reports an error in the result tuple; CallsErrSource
	// reports a direct call to a gpos/dxl function returning an error.
	// CarriesError is the transitive closure: the function's error result
	// (directly or through callees) can carry a gpos/dxl failure, so
	// discarding it hides optimizer failures (errdrop).
	ReturnsError   bool `json:"returnsError,omitempty"`
	CallsErrSource bool `json:"callsErrSource,omitempty"`
	CarriesError   bool `json:"carriesError,omitempty"`

	// RecvLocks lists receiver mutex fields the method locks ("mu" for
	// m.mu.Lock()); lockcheck uses it to flag calls into such a method while
	// the caller already holds the same field (Go mutexes do not reenter).
	RecvLocks []string `json:"recvLocks,omitempty"`

	// Hotpath marks a //orcavet:hotpath annotation; HotpathAllow lists the
	// hot-site classes the annotation waives for this function only.
	Hotpath      bool     `json:"hotpath,omitempty"`
	HotpathAllow []string `json:"hotpathAllow,omitempty"`
	// Coldpath marks a //orcavet:coldpath annotation: a declared boundary
	// the hot-path closure does not cross.
	Coldpath bool `json:"coldpath,omitempty"`
	// HotSites counts the body's latency hazards by class — the per-function
	// allocation summary the hotpath analyzer propagates along warm call
	// edges (see hotfacts.go).
	HotSites map[string]int `json:"hotSites,omitempty"`

	// Stop-path facts for golifetime: the body signals a sync.WaitGroup,
	// blocks in a select with a receive arm, or contains a loop with no
	// provable bound.
	WGDone       bool `json:"wgDone,omitempty"`
	CancelSelect bool `json:"cancelSelect,omitempty"`
	Unbounded    bool `json:"unbounded,omitempty"`
	// Spawns is golifetime's spawn-site table: one entry per `go` statement
	// in the body (function literals included).
	Spawns []*SpawnFact `json:"spawns,omitempty"`

	// LockAcquires lists the lock classes the body acquires directly (sorted,
	// deferred acquires excluded); TransLocks is the closure over static and
	// devirtualized call edges — every class the function can take somewhere
	// below it. lockorder uses these to order lock acquisitions globally.
	LockAcquires []string `json:"lockAcquires,omitempty"`
	TransLocks   []string `json:"transLocks,omitempty"`

	// MutatesRecv / MutatesParams report parameters (receiver included) the
	// function plainly writes through, closed over argument-passing edges.
	// pubimmut uses them to catch mutation of published objects via helpers.
	MutatesRecv   bool  `json:"mutatesRecv,omitempty"`
	MutatesParams []int `json:"mutatesParams,omitempty"`

	// RespCommit classifies what the function does with a ResponseWriter
	// handed to it: "always" (commits a response on every path), "may"
	// (commits on some), or "" (never writes). respwrite's fixpoint output.
	RespCommit string `json:"respCommit,omitempty"`

	// Positions are not exported (they are fset-relative); kept for
	// reporting.
	pos         token.Pos
	ctxParamPos token.Pos
	backgrounds []token.Pos // context.Background()/TODO() call sites
	provCalls   []token.Pos // md.Provider interface-method call sites

	// Hot/lifetime internals (computed in hotfacts.go, not serialized).
	hotAllow     map[string]bool
	hotpathPos   token.Pos
	hotSites     []hotSite
	warmCalls    []string
	warmIface    []string
	chanRanges   []chanRange
	sleepPolls   []token.Pos
	loopsForever bool

	// v4 internals: the lock-event timeline (lockfacts.go), the parameter
	// mutation/pass-through summary (pubfacts.go), and the gpos raise sites
	// (respfacts.go).
	lockOps   []lockOp
	mutParams map[int]bool
	paramPass []paramPassEdge
	raises    []raiseSite
}

// Facts is the module-wide interprocedural store shared by all analyzers in
// one run.
type Facts struct {
	cfg *Config
	// Funcs maps function keys to their summaries.
	Funcs map[string]*FuncFacts
	// AtomicFields registers struct fields that participate in sync/atomic
	// access, keyed "pkgpath.Type.field": fields of a declared sync/atomic
	// type, and fields whose address is passed to an old-style atomic.XxxNN
	// function anywhere in the module. atomicpub flags plain access to the
	// old-style set and non-atomic use of the declared set.
	AtomicFields map[string]string // key -> "declared" | "oldstyle"
	// IfaceImpls maps "pkgpath.Iface.Method" to the function keys of the
	// concrete implementations visible in the loaded packages.
	IfaceImpls map[string][]string
	// Roots are entry-point functions (exported functions of root packages);
	// Reachable is the call-graph closure from Roots through Calls and
	// devirtualized IfaceCalls.
	Roots     map[string]bool
	Reachable map[string]bool

	// Hot/lifetime stores (see hotfacts.go). pins caches the accessor-pin
	// function names; closedChans records channel fields closed anywhere in
	// the module; hotIssues holds malformed or floating hotpath directives.
	pins        map[string]bool
	closedChans map[string]bool
	hotIssues   []hotIssue

	// respFns retains the declarations of ResponseWriter-taking functions for
	// the respwrite commit fixpoint and rescans (respfacts.go).
	respFns map[string]*respFn
}

// ComputeFacts builds the facts store over the loaded packages. The result
// is deterministic: maps are populated from sorted traversals, and Export
// renders a canonical byte stream regardless of package order.
func ComputeFacts(pkgs []*Package, cfg *Config) *Facts {
	f := &Facts{
		cfg:          cfg,
		Funcs:        make(map[string]*FuncFacts),
		AtomicFields: make(map[string]string),
		IfaceImpls:   make(map[string][]string),
		Roots:        make(map[string]bool),
		Reachable:    make(map[string]bool),
		pins:         accessorPinNames(),
		closedChans:  make(map[string]bool),
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
	f.finalizeResp()
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
			ff := &FuncFacts{
				Key:      fn.FullName(),
				PkgPath:  pkg.PkgPath,
				Exported: fd.Name.IsExported(),
				pos:      fd.Pos(),
			}
			f.Funcs[ff.Key] = ff
			f.summarizeBody(pkg, fd, fn, ff)
			f.summarizeHotLife(pkg, fd, fn, ff)
			f.summarizeLockOps(pkg, fd, ff)
			f.summarizeMutations(pkg, fd, ff)
			f.summarizeResp(pkg, fd, fn, ff)
			if f.cfg.isRootPkg(pkg.PkgPath) && ff.Exported {
				f.Roots[ff.Key] = true
			}
		}
		// Old-style atomic calls and declared atomic fields can appear
		// outside function bodies too (var blocks, type decls).
		f.collectAtomicFields(pkg, file)
		f.collectHotDirectives(pkg, file)
	}
}

// summarizeBody fills the call edges, context facts, and lock facts of one
// declaration (function literals included).
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
	if recv := sig.Recv(); recv != nil {
		ff.RecvLocks = recvLocks(pkg, fd, recv)
	}
}

// summarizeCall records one call expression's facts.
func (f *Facts) summarizeCall(pkg *Package, call *ast.CallExpr, ff *FuncFacts, calls, ifaceCalls map[string]bool) {
	// Interface dispatch: the selection's receiver is an interface type.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				if id := ifaceMethodID(s.Recv(), sel.Sel.Name); id != "" {
					ifaceCalls[id] = true
					if id == f.cfg.MDPkgPath+".Provider."+sel.Sel.Name {
						ff.provCalls = append(ff.provCalls, call.Pos())
					}
				}
				return
			}
		}
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

// ifaceMethodID renders an interface method as "pkgpath.Iface.Method", or ""
// for anonymous interfaces.
func ifaceMethodID(recv types.Type, method string) string {
	n := namedType(recv)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + method
}

// recvLocks finds receiver mutex fields the method write-locks
// (r.mu.Lock() with r the receiver identifier). Read locks are excluded:
// calling an RLock-ing method under an RLock does not deadlock, while a
// write Lock blocks under either mode.
func recvLocks(pkg *Package, fd *ast.FuncDecl, recv *types.Var) []string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvObj := pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return nil
	}
	locked := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(inner.X).(*ast.Ident)
		if !ok || pkg.Info.Uses[base] != recvObj {
			return true
		}
		if t := pkg.Info.TypeOf(inner); isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex") {
			locked[inner.Sel.Name] = true
		}
		return true
	})
	return sortedKeys(locked)
}

// collectAtomicFields registers atomic-typed struct fields and fields whose
// address feeds an old-style sync/atomic function.
func (f *Facts) collectAtomicFields(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !isAtomicType(pkg.Info.TypeOf(field.Type)) {
					continue
				}
				for _, name := range field.Names {
					f.AtomicFields[pkg.PkgPath+"."+n.Name.Name+"."+name.Name] = "declared"
				}
			}
		case *ast.CallExpr:
			if !isOldStyleAtomicCall(pkg, n) || len(n.Args) == 0 {
				return true
			}
			// First argument is the *addr: &x.f registers field f.
			if u, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
				if key := fieldKey(pkg, u.X); key != "" {
					if f.AtomicFields[key] == "" {
						f.AtomicFields[key] = "oldstyle"
					}
				}
			}
		}
		return true
	})
}

// isAtomicType reports a sync/atomic named type (Int64, Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// isOldStyleAtomicCall reports a call to a top-level sync/atomic function
// (atomic.LoadInt64, atomic.StorePointer, ...).
func isOldStyleAtomicCall(pkg *Package, call *ast.CallExpr) bool {
	fn, _ := calleeObjPkg(pkg, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
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
	keys := make([]string, 0, len(f.Funcs))
	for k := range f.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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

// exportedFacts is the serialized form of the store.
type exportedFacts struct {
	Funcs        []*FuncFacts        `json:"funcs"`
	AtomicFields map[string]string   `json:"atomicFields,omitempty"`
	IfaceImpls   map[string][]string `json:"ifaceImpls,omitempty"`
	Roots        []string            `json:"roots,omitempty"`
	Reachable    []string            `json:"reachable,omitempty"`
}

// Export renders the store canonically: functions sorted by key, string sets
// sorted, maps marshaled with sorted keys (encoding/json's map behavior).
// Two runs over the same sources produce identical bytes regardless of
// package load order, which is what makes the facts usable as a build
// artifact.
func (f *Facts) Export() ([]byte, error) {
	out := exportedFacts{
		AtomicFields: f.AtomicFields,
		IfaceImpls:   f.IfaceImpls,
		Roots:        sortedKeys(f.Roots),
		Reachable:    sortedKeys(f.Reachable),
	}
	keys := make([]string, 0, len(f.Funcs))
	for k := range f.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Funcs = append(out.Funcs, f.Funcs[k])
	}
	return json.MarshalIndent(out, "", "  ")
}

// ImportFacts loads an exported store (positions are lost: imported facts
// serve cross-run comparison and tooling, not reporting).
func ImportFacts(data []byte) (*Facts, error) {
	var in exportedFacts
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	f := &Facts{
		Funcs:        make(map[string]*FuncFacts, len(in.Funcs)),
		AtomicFields: in.AtomicFields,
		IfaceImpls:   in.IfaceImpls,
		Roots:        make(map[string]bool),
		Reachable:    make(map[string]bool),
	}
	if f.AtomicFields == nil {
		f.AtomicFields = make(map[string]string)
	}
	if f.IfaceImpls == nil {
		f.IfaceImpls = make(map[string][]string)
	}
	for _, ff := range in.Funcs {
		f.Funcs[ff.Key] = ff
	}
	for _, r := range in.Roots {
		f.Roots[r] = true
	}
	for _, r := range in.Reachable {
		f.Reachable[r] = true
	}
	return f, nil
}

// calleeObjPkg is calleeObj without a Pass (module analyzers and facts
// collection resolve callees per package).
func calleeObjPkg(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := pkg.Info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		if o := pkg.Info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}

// sortedKeys returns the map's keys sorted.
func sortedKeys(m map[string]bool) []string {
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
