// Package ignores exercises the //orcavet:ignore directive machinery: scoped
// suppression, standalone (next-line) suppression, mandatory scope and
// reason, and unused-directive reporting. The test runs only errdrop over it
// with ReportUnusedIgnores on.
package ignores

import "orca/internal/gpos"

// read is suppressed by a scoped inline directive.
func read(t *gpos.Task) {
	t.Err() //orcavet:ignore:errdrop fixture exercises scoped inline suppression
}

// peek is suppressed by a standalone directive covering the next line.
func peek(t *gpos.Task) {
	//orcavet:ignore:errdrop fixture exercises standalone suppression
	t.Err()
}

// wrongScope carries a directive naming a different analyzer: the finding
// still fires and the directive is reported unused.
func wrongScope(t *gpos.Task) {
	t.Err() //orcavet:ignore:locks fixture wrong analyzer scope // want `error result of Task\.Err is discarded` `unused //orcavet:ignore directive`
}

// unscoped carries the scope-less form, which waives nothing.
func unscoped(t *gpos.Task) {
	t.Err() //orcavet:ignore fixture without a scope // want `error result of Task\.Err is discarded` `malformed //orcavet:ignore directive: missing :<analyzer> scope`
}

//orcavet:ignore:errdrop fixture stale waiver suppressing nothing // want `unused //orcavet:ignore directive \(suppresses no finding\)`
func clean(t *gpos.Task) error {
	return t.Err()
}

func alsoClean(t *gpos.Task) error { /*orcavet:ignore:errdrop*/ // want `malformed //orcavet:ignore directive: missing reason`
	return t.Err()
}
