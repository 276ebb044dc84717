package analysis

import (
	"go/token"
	"strings"
)

// ignoreDirective is the comment prefix that suppresses orcavet findings,
// the suite's only waiver mechanism.
//
//	stmt() //orcavet:ignore:<analyzer>[,<analyzer>] reason
//
// suppresses findings of the named analyzers on its own line; a standalone
// directive comment suppresses the next line. The analyzer scope is required
// so a waiver cannot hide findings of unrelated analyzers, a reason is
// required so suppressions stay auditable, and a directive that never
// suppresses anything is itself reported (see unusedIgnores) so stale
// waivers cannot rot in the tree.
const ignoreDirective = "orcavet:ignore"

// ignoreEntry is one parsed //orcavet:ignore directive.
type ignoreEntry struct {
	pos       token.Position // directive position (for unused-ignore reports)
	line      int            // source line the directive suppresses
	analyzers map[string]bool
	malformed string // non-empty: the directive itself is invalid
	used      bool
}

// ignoreEntries parses the package's directives, keyed by filename, building
// the index on first use.
func (p *Package) ignoreEntries() map[string][]*ignoreEntry {
	if p.ignores != nil {
		return p.ignores
	}
	p.ignores = make(map[string][]*ignoreEntry)
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		src := p.Sources[name]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				e := parseIgnore(text[len(ignoreDirective):])
				e.pos = p.Fset.Position(c.Pos())
				if standaloneComment(src, e.pos.Offset) {
					e.line = e.pos.Line + 1
				} else {
					e.line = e.pos.Line
				}
				p.ignores[name] = append(p.ignores[name], e)
			}
		}
	}
	return p.ignores
}

// parseIgnore parses the directive tail after "orcavet:ignore": the
// mandatory ":a1,a2" analyzer scope followed by the mandatory free-text
// reason.
func parseIgnore(tail string) *ignoreEntry {
	e := &ignoreEntry{analyzers: make(map[string]bool)}
	scope, ok := strings.CutPrefix(tail, ":")
	if !ok {
		e.malformed = "missing :<analyzer> scope"
		return e
	}
	reason := ""
	if i := strings.IndexAny(scope, " \t"); i >= 0 {
		scope, reason = scope[:i], scope[i:]
	}
	for _, name := range strings.Split(scope, ",") {
		if name == "" {
			e.malformed = "empty analyzer name in scope"
		}
		e.analyzers[name] = true
	}
	if strings.TrimSpace(reason) == "" && e.malformed == "" {
		e.malformed = "missing reason"
	}
	return e
}

// suppress reports whether the diagnostic is silenced by a directive whose
// line and analyzer scope match, marking the directive used.
func (p *Package) suppress(d Diagnostic) bool {
	hit := false
	for _, e := range p.ignoreEntries()[d.Pos.Filename] {
		if e.malformed != "" || e.line != d.Pos.Line || !e.analyzers[d.Analyzer] {
			continue
		}
		e.used = true
		hit = true
	}
	return hit
}

// unusedIgnores reports malformed directives and directives that suppressed
// nothing in this run, as "ignore" diagnostics: an ignore that stops matching
// (the finding was fixed, the analyzer renamed) must be deleted, not carried.
func unusedIgnores(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, name := range sortedKeys(pkg.ignoreEntries()) {
			for _, e := range pkg.ignoreEntries()[name] {
				switch {
				case e.malformed != "":
					out = append(out, Diagnostic{Pos: e.pos, Analyzer: "ignore",
						Message: "malformed //orcavet:ignore directive: " + e.malformed})
				case !e.used:
					out = append(out, Diagnostic{Pos: e.pos, Analyzer: "ignore",
						Message: "unused //orcavet:ignore directive (suppresses no finding); delete it"})
				}
			}
		}
	}
	return out
}

// standaloneComment reports whether only whitespace precedes the comment
// starting at offset on its line.
func standaloneComment(src []byte, offset int) bool {
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true
}
