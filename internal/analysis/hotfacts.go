package analysis

// This file extends the facts layer with the summaries behind the hotpath
// and golifetime analyzers:
//
//   - a //orcavet:hotpath annotation grammar marking latency-critical
//     functions, with a small set of waivable hot-site classes;
//   - per-function hot-site summaries (heap allocations that escape, fmt
//     calls, string concatenation, capturing closures, defer in loops, map
//     iteration feeding ordered output, unblessed mutex acquisition,
//     interface boxing at call boundaries), pruned along provable
//     failure paths so error plumbing does not drown the signal;
//   - warm call edges — the static calls that execute on the hot path —
//     along which hotpath propagates annotations interprocedurally;
//   - golifetime's spawn-site table: one entry per `go` statement with its
//     capture set and a provable-stop-path classification, plus the
//     per-function stop facts (WaitGroup signaling, cancellation selects,
//     unbounded loops) the classification consults.
//
// Everything here is computed once per run inside ComputeFacts, mirroring
// how locks and ctxflow consume the shared store.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective is the comment prefix that marks a hot function:
//
//	//orcavet:hotpath[:<allow>[,<allow>]] reason
//
// in the doc comment of a function declaration. The optional allow list
// waives specific hot-site classes for that function only (allowances do not
// propagate to callees). A reason is mandatory, as with //orcavet:ignore.
const hotpathDirective = "orcavet:hotpath"

// coldpathDirective marks a function that is reachable from hot roots but
// runs rarely by construction (once per Memo group, once per session):
//
//	//orcavet:coldpath reason
//
// in the doc comment of a function declaration. It is a declared propagation
// boundary, like polymorphic dispatch: the hot-path closure does not enter
// the function, so its body and callees answer only to their own
// annotations. A reason is mandatory; a function cannot be both.
const coldpathDirective = "orcavet:coldpath"

// Hot-site classes reported by hotpath.
const (
	HotFmt      = "fmt"      // call into package fmt
	HotConcat   = "concat"   // string concatenation via + / +=
	HotAlloc    = "alloc"    // escaping make/new/composite allocation
	HotClosure  = "closure"  // capturing function literal
	HotDefer    = "defer"    // defer inside a loop
	HotMapOrder = "maporder" // map iteration feeding ordered output
	HotLock     = "lock"     // mutex acquisition outside the accessor pins
	HotBox      = "box"      // interface boxing at a call boundary
)

// hotAllowable lists the classes an annotation may waive. fmt and string
// concatenation are deliberately absent: re-introducing formatting on a hot
// path is the exact regression class the analyzer exists to stop, so it can
// only be suppressed with a line-scoped //orcavet:ignore, never blanket-waived
// for a whole function.
var hotAllowable = map[string]bool{
	HotAlloc:    true,
	HotLock:     true,
	HotBox:      true,
	HotClosure:  true,
	HotDefer:    true,
	HotMapOrder: true,
}

// hotSite is one latency hazard at a source position.
type hotSite struct {
	pos    token.Pos
	class  string
	detail string
}

// hotIssue is a problem with the annotation machinery itself (malformed or
// floating directive), reported by the hotpath analyzer.
type hotIssue struct {
	pos token.Pos
	msg string
}

// SpawnFact describes one `go` statement: golifetime's spawn-site table.
type SpawnFact struct {
	// Target is the spawned function's key, or "func literal".
	Target string
	// Stop classifies the provable stop path: "waitgroup" (the goroutine
	// signals a sync.WaitGroup), "select" (it blocks in a select with a
	// receive arm — the ctx.Done / done-channel pattern), "bounded" (neither,
	// but no unbounded loop in the body or its static callees), or "none".
	Stop string

	pos         token.Pos
	wgDone      bool
	sel         bool
	unbound     bool
	calls       []string
	loopVars    []hotIssue     // captured loop variables (msg = variable name)
	sends       []token.Pos    // unbuffered sends with no cancellation arm
	sleeps      []token.Pos    // time.Sleep polling loops inside the literal
	chanRanges  []chanRange    // channel-field ranges pending close resolution
	localRanges []types.Object // local-channel ranges pending close resolution
}

// chanRange is a range over a channel pending module-wide close resolution:
// ranging a channel field is bounded only if some function closes that field.
type chanRange struct {
	fieldKey string // "pkgpath.Type.field", or "" when resolved locally
	ok       bool   // already proven stoppable (local close / parameter)
}

// isAccessorPin reports a function name blessed by the locks analyzer's
// accessor-pin table: its lock acquisitions implement the documented Memo
// index protocol and are not re-reported by hotpath.
func isAccessorPin(name string) bool {
	for _, fns := range memoIndexAccessors {
		if fns[name] {
			return true
		}
	}
	return false
}

// errorIfaceType returns the universe error interface.
func errorIfaceType() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

// implementsErrorConcrete reports a non-interface type implementing error —
// a definite failure value (a nil-free raise), unlike an error-typed call
// result which may be nil.
func implementsErrorConcrete(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	return types.Implements(t, errorIfaceType())
}

// parseHotpath parses the directive tail after "orcavet:hotpath": an optional
// ":a1,a2" allowance scope followed by the mandatory free-text reason. It
// returns the allowance set and a description of what is malformed ("" when
// well-formed).
func parseHotpath(tail string) (allow map[string]bool, malformed string) {
	if strings.HasPrefix(tail, ":") {
		rest := tail[1:]
		scope := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			scope, rest = rest[:i], rest[i:]
		} else {
			rest = ""
		}
		allow = make(map[string]bool)
		for _, name := range strings.Split(scope, ",") {
			name = strings.TrimSpace(name)
			switch {
			case name == "":
				malformed = "empty allowance in scope"
			case name == HotFmt || name == HotConcat:
				malformed = "allowance " + quote(name) + " cannot be waived on a hot path"
			case !hotAllowable[name]:
				malformed = "unknown allowance " + quote(name) + " (valid: alloc, box, closure, defer, lock, maporder)"
			default:
				allow[name] = true
			}
		}
		tail = rest
	}
	if strings.TrimSpace(tail) == "" && malformed == "" {
		malformed = "missing reason"
	}
	return allow, malformed
}

// quote wraps s in double quotes without pulling fmt into the parse path.
func quote(s string) string { return `"` + s + `"` }

// hotDirectiveText extracts the tail after the given directive from a
// comment, or ok=false.
func hotDirectiveText(c *ast.Comment, directive string) (string, bool) {
	text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
	if !strings.HasPrefix(text, directive) {
		return "", false
	}
	return text[len(directive):], true
}

// collectHotDirectives parses //orcavet:hotpath and //orcavet:coldpath
// annotations in one file: directives attached to a function declaration's
// doc comment configure that function's facts; directives anywhere else are
// floating and reported.
func (f *Facts) collectHotDirectives(pkg *Package, file *ast.File) {
	attached := make(map[*ast.Comment]bool)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		ff := f.Funcs[fn.FullName()]
		for _, c := range fd.Doc.List {
			if tail, ok := hotDirectiveText(c, coldpathDirective); ok {
				attached[c] = true
				switch {
				case strings.TrimSpace(tail) == "":
					f.hotIssues = append(f.hotIssues, hotIssue{c.Pos(),
						"malformed //orcavet:coldpath directive: missing reason"})
				case ff != nil:
					ff.Coldpath = true
				}
				continue
			}
			tail, ok := hotDirectiveText(c, hotpathDirective)
			if !ok {
				continue
			}
			attached[c] = true
			allow, malformed := parseHotpath(tail)
			if malformed != "" {
				f.hotIssues = append(f.hotIssues, hotIssue{c.Pos(),
					"malformed //orcavet:hotpath directive: " + malformed})
				continue
			}
			if ff != nil {
				ff.Hotpath = true
				ff.hotAllow = allow
			}
		}
		if ff != nil && ff.Hotpath && ff.Coldpath {
			f.hotIssues = append(f.hotIssues, hotIssue{fd.Pos(),
				"function is annotated both //orcavet:hotpath and //orcavet:coldpath"})
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, d := range []string{hotpathDirective, coldpathDirective} {
				if _, ok := hotDirectiveText(c, d); ok && !attached[c] {
					f.hotIssues = append(f.hotIssues, hotIssue{c.Pos(),
						"//" + d + " directive must be in a function declaration's doc comment"})
				}
			}
		}
	}
}

// hotWalk carries the state of one function declaration's hot/lifetime walk.
type hotWalk struct {
	f       *Facts
	pkg     *Package
	fd      *ast.FuncDecl
	ff      *FuncFacts
	factory bool // error factory: whole body is failure-path plumbing
	blessed bool // accessor-pin function: its locks are the protocol

	fresh        []*freshAlloc // escape-tracked candidate allocations
	freshObjs    map[types.Object]*freshAlloc
	trackedRHS   map[ast.Expr]bool     // alloc expressions under escape tracking
	chanBuf      map[types.Object]bool // local channels: buffered?
	closedLocals map[types.Object]bool // local channels closed in this body
	localRanges  []types.Object        // local-channel ranges pending resolution
	warm         map[string]bool
	warmIface    map[string]bool
	curSpawn     *SpawnFact // spawn whose literal is being summarized
}

type freshAlloc struct {
	obj     types.Object
	site    hotSite
	escaped bool
}

// isErrorFactory reports a function whose every result is a concrete
// error-implementing type — a constructor of failure values (gpos.Raise,
// PanicException). Its whole body is cold: nothing in it runs on a healthy
// hot path.
func isErrorFactory(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() == 0 {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if !implementsErrorConcrete(sig.Results().At(i).Type()) {
			return false
		}
	}
	return true
}

// summarizeHotLife fills ff's hot-site, warm-edge, stop-path, and spawn-site
// facts from one declaration's body.
func (f *Facts) summarizeHotLife(pkg *Package, fd *ast.FuncDecl, fn *types.Func, ff *FuncFacts) {
	if fd.Body == nil {
		return
	}
	w := &hotWalk{
		f: f, pkg: pkg, fd: fd, ff: ff,
		factory:    isErrorFactory(fn),
		blessed:    isAccessorPin(fd.Name.Name),
		freshObjs:  make(map[types.Object]*freshAlloc),
		trackedRHS: make(map[ast.Expr]bool),
		chanBuf:    make(map[types.Object]bool),
		warm:       make(map[string]bool),
		warmIface:  make(map[string]bool),
	}
	w.seedLocals()
	w.walk()
	for _, fr := range w.fresh {
		if fr.escaped {
			ff.hotSites = append(ff.hotSites, fr.site)
		}
	}
	ff.warmCalls = sortedKeys(w.warm)
	ff.warmIface = sortedKeys(w.warmIface)
}

// seedLocals records escape-trackable allocations bound to fresh locals
// (stack-allocatable until proven escaping) and local channel creations with
// their buffering, from every `x := ...` in the body.
func (w *hotWalk) seedLocals() {
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := w.pkg.Info.Defs[id]
			if obj == nil {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if ch, buffered, ok := w.chanMake(rhs); ok && ch {
				w.chanBuf[obj] = buffered
				continue
			}
			if site, ok := w.trackableAlloc(rhs); ok {
				fr := &freshAlloc{obj: obj, site: site}
				w.fresh = append(w.fresh, fr)
				w.freshObjs[obj] = fr
				w.trackedRHS[rhs] = true
			}
		}
		return true
	})
}

// chanMake reports whether e is make(chan T[, n]) and whether n is a
// non-zero constant (buffered).
func (w *hotWalk) chanMake(e ast.Expr) (isChan, buffered, ok bool) {
	call, okc := e.(*ast.CallExpr)
	if !okc || len(call.Args) == 0 {
		return false, false, false
	}
	id, oki := ast.Unparen(call.Fun).(*ast.Ident)
	if !oki || id.Name != "make" || w.pkg.Info.Uses[id] != nil && w.pkg.Info.Uses[id] != types.Universe.Lookup("make") {
		return false, false, false
	}
	t := w.pkg.Info.TypeOf(call.Args[0])
	if t == nil {
		return false, false, false
	}
	if _, okch := t.Underlying().(*types.Chan); !okch {
		return false, false, false
	}
	buffered = false
	if len(call.Args) >= 2 {
		if tv, okv := w.pkg.Info.Types[call.Args[1]]; okv && tv.Value != nil {
			if v, exact := constant.Int64Val(tv.Value); exact && v > 0 {
				buffered = true
			}
		} else {
			buffered = true // non-constant capacity: assume intentional buffering
		}
	}
	return true, buffered, true
}

// trackableAlloc reports whether e is an allocation whose escape can be
// decided locally (&T{...}, make([]T, ...), []T{...}, new(T)). Map and
// channel makes are not trackable: they allocate regardless of escape.
func (w *hotWalk) trackableAlloc(e ast.Expr) (hotSite, bool) {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return hotSite{e.Pos(), HotAlloc, "escaping " + types.ExprString(e) + " allocation"}, true
			}
		}
	case *ast.CompositeLit:
		if t := w.pkg.Info.TypeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				return hotSite{e.Pos(), HotAlloc, "escaping slice literal"}, true
			}
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			break
		}
		switch id.Name {
		case "make":
			if len(e.Args) > 0 {
				if t := w.pkg.Info.TypeOf(e.Args[0]); t != nil {
					if _, okSlice := t.Underlying().(*types.Slice); okSlice {
						return hotSite{e.Pos(), HotAlloc, "escaping make(" + types.ExprString(e.Args[0]) + ")"}, true
					}
				}
			}
		case "new":
			return hotSite{e.Pos(), HotAlloc, "escaping " + types.ExprString(e) + " allocation"}, true
		}
	}
	return hotSite{}, false
}

// finalizeHotLife resolves the facts that need the whole module: ranges over
// channel fields check the module-wide close set, the loops-forever fixpoint
// closes over static call edges, and every spawn gets its stop
// classification.
func (f *Facts) finalizeHotLife() {
	keys := factKeys(f)
	for _, k := range keys {
		ff := f.Funcs[k]
		for _, cr := range ff.chanRanges {
			if !cr.ok && cr.fieldKey != "" && !f.closedChans[cr.fieldKey] {
				ff.Unbounded = true
			}
		}
	}
	// A function loops forever when it contains an unbounded loop or
	// statically calls a function that does (monotone fixpoint, like
	// computeCarriers).
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			ff := f.Funcs[k]
			if ff.loopsForever {
				continue
			}
			lf := ff.Unbounded
			for _, c := range ff.Calls {
				if cf := f.Funcs[c]; !lf && cf != nil && cf.loopsForever {
					lf = true
				}
			}
			if lf {
				ff.loopsForever = true
				changed = true
			}
		}
	}
	for _, k := range keys {
		ff := f.Funcs[k]
		for _, sp := range ff.Spawns {
			for _, cr := range sp.chanRanges {
				if !cr.ok && cr.fieldKey != "" && !f.closedChans[cr.fieldKey] {
					sp.unbound = true
				}
			}
			sp.Stop = f.classifySpawn(sp)
		}
	}
}

// classifySpawn derives the provable stop path of one spawn from the facts:
// WaitGroup signaling beats a cancellation select beats bounded iteration;
// a goroutine with none of the three is a leak candidate.
func (f *Facts) classifySpawn(sp *SpawnFact) string {
	if sp.Target == "func literal" {
		switch {
		case sp.wgDone:
			return "waitgroup"
		case sp.sel:
			return "select"
		case sp.unbound:
			return "none"
		}
		for _, c := range sp.calls {
			if cf := f.Funcs[c]; cf != nil && cf.loopsForever {
				return "none"
			}
		}
		return "bounded"
	}
	tf := f.Funcs[sp.Target]
	if tf == nil {
		return "none"
	}
	switch {
	case tf.WGDone:
		return "waitgroup"
	case tf.CancelSelect:
		return "select"
	case tf.loopsForever:
		return "none"
	}
	return "bounded"
}
