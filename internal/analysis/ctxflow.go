package analysis

import "strings"

// CtxFlow tracks context.Context through the call chains rooted at the
// optimizer's entry points (the exported functions of internal/md,
// internal/core and internal/search), guarding the paper-§6.1 guarantee that
// every metadata lookup runs under the session's per-lookup deadline:
//
//  1. A named context parameter that the body never uses is a dropped
//     context — cancellation and deadlines silently stop propagating.
//  2. context.Background() / context.TODO() inside a function reachable
//     from an entry point (but not an entry point itself) detaches the
//     request path from the session context. Entry points may mint the
//     root context; interior functions must thread the one they were given.
//  3. Calls through the md.Provider interface are how lookups escape to a
//     possibly-slow backend. Outside internal/md they bypass the Accessor's
//     timeout layer entirely; inside internal/md they are only safe under
//     timedLookup, which enforces the deadline and abandons hung providers.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags dropped ctx parameters, context.Background()/TODO() inside " +
		"request paths, and metadata provider calls that bypass the " +
		"Accessor's per-lookup timeout",
	RunModule: runCtxFlow,
}

func runCtxFlow(mp *ModulePass) {
	facts := mp.Facts
	for _, key := range factKeys(facts) {
		ff := facts.Funcs[key]
		if ff.CtxParam != "" && !ff.UsesCtx {
			mp.Reportf(ff.ctxParamPos,
				"ctx parameter %q is dropped: the context never reaches the body's calls", ff.CtxParam)
		}
		if facts.Reachable[key] && !facts.Roots[key] {
			for _, pos := range ff.backgrounds {
				mp.Reportf(pos,
					"context.Background/TODO inside a request path (%s is reachable from optimizer entry points); thread the caller's ctx instead",
					shortKey(key))
			}
		}
		for _, pos := range ff.provCalls {
			switch {
			case ff.PkgPath == mp.Config.MDPkgPath:
				if !callsTimedLookup(ff, mp.Config.MDPkgPath) {
					mp.Reportf(pos,
						"md.Provider call outside timedLookup: provider lookups inside %s must run under the per-lookup timeout", mp.Config.MDPkgPath)
				}
			case facts.Reachable[key]:
				mp.Reportf(pos,
					"md.Provider call in %s bypasses the Accessor timeout layer; go through md.Accessor so the per-lookup deadline applies",
					shortKey(key))
			}
		}
	}
}

// callsTimedLookup reports whether the function (closures folded in) invokes
// the md package's timedLookup deadline wrapper.
func callsTimedLookup(ff *FuncFacts, mdPath string) bool {
	for _, c := range ff.Calls {
		if c == mdPath+".timedLookup" {
			return true
		}
	}
	return false
}

// shortKey trims the module path prefix for readable diagnostics.
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
