// Package ignores exercises the //orcavet:ignore directive machinery: scoped
// suppression, standalone (next-line) suppression, mandatory scope and
// reason, and unused-directive reporting. The test runs only errdrop over it
// with ReportUnusedIgnores on.
package ignores

import "orca/internal/gpos"

// read is suppressed by a scoped inline directive.
func read(e *gpos.Exception) {
	e.Unwrap() //orcavet:ignore:errdrop fixture exercises scoped inline suppression
}

// peek is suppressed by a standalone directive covering the next line.
func peek(e *gpos.Exception) {
	//orcavet:ignore:errdrop fixture exercises standalone suppression
	e.Unwrap()
}

// wrongScope carries a directive naming a different analyzer: the finding
// still fires and the directive is reported unused.
func wrongScope(e *gpos.Exception) {
	e.Unwrap() //orcavet:ignore:locks fixture wrong analyzer scope // want `error result of Exception\.Unwrap is discarded` `unused //orcavet:ignore directive`
}

// unscoped carries the scope-less form, which waives nothing.
func unscoped(e *gpos.Exception) {
	e.Unwrap() //orcavet:ignore fixture without a scope // want `error result of Exception\.Unwrap is discarded` `malformed //orcavet:ignore directive: missing :<analyzer> scope`
}

//orcavet:ignore:errdrop fixture stale waiver suppressing nothing // want `unused //orcavet:ignore directive \(suppresses no finding\)`
func clean(e *gpos.Exception) error {
	return e.Unwrap()
}

func alsoClean(e *gpos.Exception) error { /*orcavet:ignore:errdrop*/ // want `malformed //orcavet:ignore directive: missing reason`
	return e.Unwrap()
}
