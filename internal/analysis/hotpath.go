package analysis

import "sort"

// HotPath enforces the allocation-free hot-path contract behind the Memo's
// §6.2 performance story: a `//orcavet:hotpath reason` annotation marks a
// latency-critical function (Memo.Insert, the group-index and
// fingerprint-shard probes, the scheduler step loop, cost evaluation), and
// the analyzer flags — in the annotated function and everything reachable
// from it along warm static call edges — heap-allocating constructs
// (escaping make/new/composite literals, fmt calls, string concatenation,
// capturing closures, interface boxing at call boundaries), defer inside
// loops, map iteration feeding ordered output, and mutex acquisition outside
// lockcheck's accessor pins. Per-function hot-site summaries are computed
// once in the facts layer and propagated here, mirroring atomicpub.
//
// Propagation is deliberate about its edges: failure-path plumbing (blocks
// ending in a raise or panic, recover guards, error factories) is pruned,
// code handed to other goroutines is excluded, and polymorphic interface
// dispatch is a propagation boundary — the boxing at the boundary is flagged
// on the caller, per-implementation discipline belongs to the callee's own
// annotation. Monomorphic interface edges (a single visible implementation)
// are followed. A `//orcavet:coldpath reason` function is a declared boundary
// of the same kind: reachable from a hot root, but rare by construction
// (once per Memo group, say), so the closure does not enter it.
//
// An annotation can waive whole classes for its own function —
// `//orcavet:hotpath:alloc,lock reason` — but fmt and string concatenation
// are never waivable, and allowances do not propagate to callees.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "flag heap allocations, locks, and other latency hazards in " +
		"//orcavet:hotpath-annotated functions and their warm callees",
	RunModule: runHotPath,
}

func runHotPath(mp *ModulePass) {
	f := mp.Facts
	for _, issue := range f.hotIssues {
		mp.Reportf(issue.pos, "%s", issue.msg)
	}

	// Breadth-first closure from the annotated roots over warm static edges
	// and monomorphic interface edges, remembering the witness root for
	// attribution. Roots are processed in sorted order so attribution is
	// deterministic when closures overlap.
	witness := make(map[string]string)
	var queue []string
	for _, k := range factKeys(f) {
		if f.Funcs[k].Hotpath {
			witness[k] = k
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		ff := f.Funcs[k]
		if ff == nil {
			continue
		}
		visit := func(callee string) {
			if _, seen := witness[callee]; seen {
				return
			}
			if cf := f.Funcs[callee]; cf == nil || cf.Coldpath {
				return
			}
			witness[callee] = witness[k]
			queue = append(queue, callee)
		}
		for _, c := range ff.warmCalls {
			visit(c)
		}
		for _, ic := range ff.warmIface {
			if impls := f.IfaceImpls[ic]; len(impls) == 1 {
				visit(impls[0])
			}
		}
	}

	keys := make([]string, 0, len(witness))
	for k := range witness {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ff := f.Funcs[k]
		root := witness[k]
		for _, s := range ff.hotSites {
			if ff.hotAllow[s.class] {
				continue
			}
			if root == k {
				mp.Reportf(s.pos, "hot path: %s in //orcavet:hotpath function %s",
					s.detail, shortKey(k))
			} else {
				mp.Reportf(s.pos, "hot path: %s in %s (reachable from //orcavet:hotpath %s)",
					s.detail, shortKey(k), shortKey(root))
			}
		}
	}
}
