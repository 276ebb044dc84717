package analysis

// locks.go: the locks analyzer and the lock timelines behind it. Every
// function body is summarized into ordered timelines of lock-relevant events
// — mutex acquisitions and releases, returns, operations that can block
// indefinitely (channel ops, selects, md.Provider lookups, singleflight
// waits), and call sites — plus the transitive lock-class closure
// (TransLocks) that lets the analyzer add acquisition-order edges for locks
// taken deep inside callees.
//
// A lock's identity is its class: the (named type, field) pair rendered as
// "pkgpath.Type.field". Sharded arrays collapse automatically —
// c.shards[i].mu and c.shards[j].mu select the same field of the same
// element type, so both are one class. Locks that are not struct fields
// (package-level or local mutexes) fall back to "pkgpath.expr".
//
// Copies of values holding a sync primitive or a sync/atomic value are not
// checked here: go vet's copylocks check (run by check.sh) reports them.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Locks enforces the module's mutex discipline (DESIGN.md §8).
var Locks = &Analyzer{
	Name: "locks",
	Doc: "flags sync.Cond.Wait outside a re-checking loop, a Lock with no " +
		"Unlock on some return path, calls that re-lock a receiver mutex the " +
		"caller holds, lock-acquisition-order cycles across the call graph, " +
		"and locks held across indefinitely-blocking operations",
	RunModule: runLocks,
}

// Lock-op kinds of a timeline, in source order.
const (
	lockOpAcquire = iota // mutex Lock/RLock
	lockOpRelease        // mutex Unlock/RUnlock
	lockOpBlock          // an operation that can block indefinitely
	lockOpCall           // a resolvable call site (static or interface)
	lockOpReturn         // a return statement of the timeline's function
	lockOpBadWait        // sync.Cond.Wait outside a loop
)

// lockOp is one event of a lock timeline.
type lockOp struct {
	kind int
	pos  token.Pos
	// deferred marks events that run at function exit (directly deferred
	// calls and events inside defer func(){...}() literals).
	deferred bool

	class string // acquire/release: lock class, "pkgpath.Type.field"
	mode  byte   // acquire/release: 'W' (Lock/Unlock) or 'R' (RLock/RUnlock)
	expr  string // acquire/release: receiver expression text, e.g. "s.mu"

	blockKind string // block: "channel send", "select statement", ...

	callee  string // call: function key, or interface method id when isIface
	isIface bool
	recv    string // call: receiver expression text of a static method call
}

// summarizeLockOps builds the declaration's lock timelines and the receiver
// mutexes it write-locks.
func (f *Facts) summarizeLockOps(pkg *Package, fd *ast.FuncDecl, ff *FuncFacts) {
	if fd.Body == nil {
		return
	}
	f.lockUnit(pkg, fd.Body, ff)
	if fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	prefix := fd.Recv.List[0].Names[0].Name + "."
	fields := make(map[string]bool)
	for _, op := range ff.lockUnits[0] {
		if field, ok := strings.CutPrefix(op.expr, prefix); ok && op.kind == lockOpAcquire &&
			op.mode == 'W' && !strings.Contains(field, ".") {
			fields[field] = true
		}
	}
	ff.RecvLocks = sortedKeys(fields)
}

// lockUnit appends the timeline of one function body to ff.lockUnits. A
// function literal that is not directly deferred gets a timeline of its own:
// a goroutine or callback body does not run under the enclosing function's
// held locks, while defer func(){ mu.Unlock() }() is the standard unlock
// idiom and stays in the enclosing timeline.
func (f *Facts) lockUnit(pkg *Package, body *ast.BlockStmt, ff *FuncFacts) {
	idx := len(ff.lockUnits)
	ff.lockUnits = append(ff.lockUnits, nil)
	var ops []lockOp
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		emit := func(op lockOp) {
			op.pos, op.deferred = n.Pos(), inDeferredCtx(stack)
			ops = append(ops, op)
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if !isDeferredLit(stack, n) {
				f.lockUnit(pkg, n.Body, ff)
				return false
			}
		case *ast.ReturnStmt:
			if !inDeferredCtx(stack) {
				emit(lockOp{kind: lockOpReturn})
			}
		case *ast.CallExpr:
			f.callLockOps(pkg, n, stack, emit)
		case *ast.SendStmt:
			if !inCommGuard(stack, n) {
				emit(lockOp{kind: lockOpBlock, blockKind: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inCommGuard(stack, n) {
				emit(lockOp{kind: lockOpBlock, blockKind: "channel receive"})
			}
		case *ast.SelectStmt:
			emit(lockOp{kind: lockOpBlock, blockKind: "select statement"})
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					emit(lockOp{kind: lockOpBlock, blockKind: "channel range"})
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	ff.lockUnits[idx] = ops
}

// callLockOps classifies one call expression: a condition-variable wait, a
// mutex acquire/release, a blocking lookup/wait, and/or a call edge for
// TransLocks propagation.
func (f *Facts) callLockOps(pkg *Package, call *ast.CallExpr, stack []ast.Node, emit func(lockOp)) {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel != nil {
		recv := pkg.Info.TypeOf(sel.X)
		if sel.Sel.Name == "Wait" && isNamed(recv, "sync", "Cond") {
			if !inLoop(stack) {
				emit(lockOp{kind: lockOpBadWait})
			}
			return
		}
		if isNamed(recv, "sync", "Mutex") || isNamed(recv, "sync", "RWMutex") {
			op := lockOp{kind: lockOpAcquire, mode: 'W', expr: types.ExprString(sel.X), class: fieldKey(pkg, sel.X)}
			switch sel.Sel.Name {
			case "Lock":
			case "RLock":
				op.mode = 'R'
			case "Unlock":
				op.kind = lockOpRelease
			case "RUnlock":
				op.kind, op.mode = lockOpRelease, 'R'
			default:
				return
			}
			if op.class == "" {
				op.class = pkg.PkgPath + "." + op.expr
			}
			emit(op)
			return
		}
		// Singleflight wait: FlightGroup.Do blocks waiters on the leader.
		if n := namedType(recv); sel.Sel.Name == "Do" && n != nil && n.Obj().Name() == "FlightGroup" &&
			n.Obj().Pkg() != nil && isPkg(n.Obj().Pkg().Path(), plancachePkgPath) {
			emit(lockOp{kind: lockOpBlock, blockKind: "singleflight wait"})
		}
	}
	if id, _ := ifaceCall(pkg, call); id != "" {
		if f.isProviderCall(id) {
			emit(lockOp{kind: lockOpBlock, blockKind: "md.Provider lookup"})
		}
		emit(lockOp{kind: lockOpCall, callee: id, isIface: true})
		return
	}
	if fn, _ := calleeObjPkg(pkg, call).(*types.Func); fn != nil && fn.Pkg() != nil {
		op := lockOp{kind: lockOpCall, callee: fn.FullName()}
		if sel != nil && fn.Type().(*types.Signature).Recv() != nil {
			op.recv = types.ExprString(sel.X)
		}
		emit(op)
	}
}

// inLoop reports a for/range ancestor inside the current function literal
// (wakeups can be spurious, so a condition wait must re-check in a loop).
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// isDeferredLit reports a function literal invoked directly by a defer
// statement: defer func() { ... }().
func isDeferredLit(stack []ast.Node, lit *ast.FuncLit) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok || call.Fun != lit {
		return false
	}
	_, ok = stack[len(stack)-2].(*ast.DeferStmt)
	return ok
}

// inDeferredCtx reports whether the walker is inside a defer statement (a
// direct deferred call, or the body of a deferred literal).
func inDeferredCtx(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// inCommGuard reports whether n is (part of) the communication guard of a
// select case — `case <-ch:` / `case ch <- v:`. The enclosing SelectStmt is
// recorded as the one blocking event; counting the guard too would
// double-report.
func inCommGuard(stack []ast.Node, n ast.Node) bool {
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.CommClause:
			return child == ast.Node(s.Comm)
		case *ast.FuncLit, *ast.FuncDecl, *ast.BlockStmt:
			return false
		}
		child = stack[i]
	}
	return false
}

// finalizeLockOrder computes each function's direct lock-class set
// (LockAcquires, from the declaration's own timeline) and its transitive
// closure over static and devirtualized call edges (TransLocks), the
// relation the replay uses to add acquisition-order edges at call sites
// made under a held lock.
func (f *Facts) finalizeLockOrder() {
	keys := factKeys(f)
	trans := make(map[string]map[string]bool, len(keys))
	for _, k := range keys {
		ff := f.Funcs[k]
		set := make(map[string]bool)
		if len(ff.lockUnits) > 0 {
			for _, op := range ff.lockUnits[0] {
				if op.kind == lockOpAcquire && !op.deferred {
					set[op.class] = true
				}
			}
		}
		ff.LockAcquires = sortedKeys(set)
		trans[k] = set
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			ff := f.Funcs[k]
			t := trans[k]
			add := func(callee string) {
				for c := range trans[callee] {
					if !t[c] {
						t[c] = true
						changed = true
					}
				}
			}
			for _, c := range ff.Calls {
				add(c)
			}
			for _, ic := range ff.IfaceCalls {
				for _, impl := range f.IfaceImpls[ic] {
					add(impl)
				}
			}
		}
	}
	for _, k := range keys {
		f.Funcs[k].TransLocks = sortedKeys(trans[k])
	}
}

// transLocksOf returns the callee's transitive lock classes: the function's
// own TransLocks for a static callee, or the union over the registered
// implementations for an interface method id.
func (f *Facts) transLocksOf(callee string, isIface bool) []string {
	impls := []string{callee}
	if isIface {
		impls = f.IfaceImpls[callee]
	}
	set := make(map[string]bool)
	for _, impl := range impls {
		if ff := f.Funcs[impl]; ff != nil {
			for _, c := range ff.TransLocks {
				set[c] = true
			}
		}
	}
	return sortedKeys(set)
}

// lockEdgeKey identifies one acquisition-order edge between lock classes.
type lockEdgeKey struct {
	from, to string
}

// lockWitness is the first site at which an order edge was observed.
type lockWitness struct {
	pos token.Pos
	via string // "" for a direct acquisition, the callee key otherwise
}

func runLocks(mp *ModulePass) {
	f := mp.Facts
	edges := make(map[lockEdgeKey]lockWitness)
	for _, k := range factKeys(f) {
		for _, unit := range f.Funcs[k].lockUnits {
			checkPairing(mp, unit)
			f.replayHeld(mp, unit, edges)
		}
	}
	reportOrderCycles(mp, edges)
}

// checkPairing reports condition waits outside a loop, a Lock with no
// matching Unlock in the same function, and — unless the Unlock is deferred
// — a return between a Lock and its Unlock. Pairing is by receiver
// expression and mode, in source order.
func checkPairing(mp *ModulePass, unit []lockOp) {
	type keyState struct {
		expr            string
		mode            byte
		acquires        []token.Pos
		releases        []token.Pos
		deferredRelease bool
	}
	keys := make(map[string]*keyState)
	var order []string
	var returns []token.Pos
	for _, op := range unit {
		switch op.kind {
		case lockOpBadWait:
			mp.Reportf(op.pos, "sync.Cond.Wait must be wrapped in a for loop re-checking the condition (wakeups can be spurious)")
		case lockOpReturn:
			returns = append(returns, op.pos)
		case lockOpAcquire, lockOpRelease:
			key := op.expr + "/" + string(op.mode)
			ks := keys[key]
			if ks == nil {
				ks = &keyState{expr: op.expr, mode: op.mode}
				keys[key] = ks
				order = append(order, key)
			}
			if op.kind == lockOpAcquire {
				ks.acquires = append(ks.acquires, op.pos)
			} else {
				ks.releases = append(ks.releases, op.pos)
				ks.deferredRelease = ks.deferredRelease || op.deferred
			}
		}
	}
	for _, key := range order {
		ks := keys[key]
		lock, unlock := ks.expr+".Lock", ks.expr+".Unlock"
		if ks.mode == 'R' {
			lock, unlock = ks.expr+".RLock", ks.expr+".RUnlock"
		}
		switch {
		case len(ks.acquires) == 0 || ks.deferredRelease:
			continue
		case len(ks.releases) == 0:
			mp.Reportf(ks.acquires[0], "%s without a matching %s in the same function", lock, unlock)
			continue
		}
		for _, ret := range returns {
			for _, acq := range ks.acquires {
				if acq < ret && !releasedBetween(ks.releases, acq, ret) {
					mp.Reportf(ret, "return path may leave %s held: no %s between the %s and this return, and none is deferred", ks.expr, unlock, lock)
					break
				}
			}
		}
	}
}

func releasedBetween(releases []token.Pos, from, to token.Pos) bool {
	for _, r := range releases {
		if r > from && r < to {
			return true
		}
	}
	return false
}

// replayHeld simulates the held-lock set over one timeline in source order.
// Deferred events never run mid-body and are skipped, so a deferred release
// keeps its lock held to the end of the function; a release pops the most
// recent matching acquisition (by expression, else class). Acquiring B while
// holding A adds the order edge A → B, directly or through the TransLocks of
// a call made under A; a lock held across a blocking operation, or a call
// that re-locks a receiver mutex already held, is reported on the spot.
func (f *Facts) replayHeld(mp *ModulePass, unit []lockOp, edges map[lockEdgeKey]lockWitness) {
	addEdge := func(from, to string, w lockWitness) {
		if _, ok := edges[lockEdgeKey{from, to}]; !ok && from != to {
			edges[lockEdgeKey{from, to}] = w
		}
	}
	var held []lockOp
	for _, op := range unit {
		if op.deferred {
			continue
		}
		switch op.kind {
		case lockOpAcquire:
			for _, h := range held {
				addEdge(h.class, op.class, lockWitness{pos: op.pos})
			}
			held = append(held, op)
		case lockOpRelease:
			idx := -1
			for i := len(held) - 1; i >= 0 && idx < 0; i-- {
				if held[i].expr == op.expr && held[i].mode == op.mode {
					idx = i
				}
			}
			for i := len(held) - 1; i >= 0 && idx < 0; i-- {
				if held[i].class == op.class && held[i].mode == op.mode {
					idx = i
				}
			}
			if idx >= 0 {
				held = append(held[:idx], held[idx+1:]...)
			}
		case lockOpBlock:
			if len(held) > 0 {
				mp.Reportf(op.pos, "lock %s held across %s: a goroutine blocked here keeps the lock and stalls every other path through it",
					held[len(held)-1].class, op.blockKind)
			}
		case lockOpCall:
			if cf := f.Funcs[op.callee]; cf != nil && op.recv != "" {
				for _, field := range cf.RecvLocks {
					if heldExpr(held, op.recv+"."+field) {
						mp.Reportf(op.pos, "call to %s while %s.%s is held: the method locks its receiver's %s, which self-deadlocks",
							op.callee[strings.LastIndex(op.callee, ".")+1:], op.recv, field, field)
					}
				}
			}
			if len(held) == 0 {
				continue
			}
			for _, c := range f.transLocksOf(op.callee, op.isIface) {
				for _, h := range held {
					addEdge(h.class, c, lockWitness{pos: op.pos, via: op.callee})
				}
			}
		}
	}
}

func heldExpr(held []lockOp, expr string) bool {
	for _, h := range held {
		if h.expr == expr {
			return true
		}
	}
	return false
}

// reportOrderCycles reports every order edge that lies on a cycle: two
// goroutines taking the same pair of lock classes in opposite orders
// deadlock. An edge A → B is on a cycle exactly when B reaches A.
func reportOrderCycles(mp *ModulePass, edges map[lockEdgeKey]lockWitness) {
	adj := make(map[string][]string)
	keys := make([]lockEdgeKey, 0, len(edges))
	for ek := range edges {
		adj[ek.from] = append(adj[ek.from], ek.to)
		keys = append(keys, ek)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	reaches := func(from, to string) bool {
		seen := make(map[string]bool)
		for work := []string{from}; len(work) > 0; {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if n == to {
				return true
			}
			if !seen[n] {
				seen[n] = true
				work = append(work, adj[n]...)
			}
		}
		return false
	}
	for _, ek := range keys {
		if !reaches(ek.to, ek.from) {
			continue
		}
		if w := edges[ek]; w.via != "" {
			mp.Reportf(w.pos, "lock acquisition order cycle: %s (via call to %s) is acquired while %s is held, and the reverse order exists elsewhere in the module",
				ek.to, w.via, ek.from)
		} else {
			mp.Reportf(w.pos, "lock acquisition order cycle: %s is acquired while %s is held, and the reverse order exists elsewhere in the module",
				ek.to, ek.from)
		}
	}
}
