package optgen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ParseDir parses every .opt file in dir (sorted order, so the catalog —
// and therefore all generated output — is deterministic).
func ParseDir(dir string) (*Catalog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".opt") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("optgen: no .opt files in %s", dir)
	}
	cat := &Catalog{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := parseFile(cat, f, string(src)); err != nil {
			return nil, err
		}
	}
	if err := cat.validate(); err != nil {
		return nil, err
	}
	return cat, nil
}

// Parse parses a single .opt source (used by tests and fixtures). The
// catalog is validated.
func Parse(filename, src string) (*Catalog, error) {
	cat := &Catalog{}
	if err := parseFile(cat, filename, src); err != nil {
		return nil, err
	}
	if err := cat.validate(); err != nil {
		return nil, err
	}
	return cat, nil
}

// parser state for one file.
type parser struct {
	cat   *Catalog
	file  string
	lines []string
	pos   int // 0-based index into lines
	doc   []string
}

func parseFile(cat *Catalog, file, src string) error {
	p := &parser{cat: cat, file: file, lines: strings.Split(src, "\n")}
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		switch {
		case line == "":
			p.doc = nil // blank line detaches pending doc comments
			p.pos++
		case strings.HasPrefix(line, "#"):
			p.doc = append(p.doc, strings.TrimSpace(strings.TrimPrefix(line, "#")))
			p.pos++
		case strings.HasPrefix(line, "["):
			if err := p.parseDecl(line); err != nil {
				return err
			}
		default:
			return p.errf(p.pos, "expected declaration, found %q", line)
		}
	}
	return nil
}

func (p *parser) errf(idx int, format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", p.file, idx+1, fmt.Sprintf(format, args...))
}

// parseDecl handles "[Tags] define Name {" and "[Tags] rule Name {".
func (p *parser) parseDecl(line string) error {
	start := p.pos
	close := strings.Index(line, "]")
	if close < 0 {
		return p.errf(start, "unterminated tag list")
	}
	var tags []string
	for _, t := range strings.Split(line[1:close], ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags = append(tags, t)
		}
	}
	rest := strings.Fields(strings.TrimSpace(line[close+1:]))
	if len(rest) != 3 || rest[2] != "{" {
		return p.errf(start, "expected `define Name {` or `rule Name {` after tags")
	}
	doc := p.doc
	p.doc = nil
	p.pos++
	switch rest[0] {
	case "define":
		return p.parseDefine(start, tags, rest[1], doc)
	case "rule":
		return p.parseRule(start, tags, rest[1], doc)
	}
	return p.errf(start, "expected `define` or `rule`, found %q", rest[0])
}

func (p *parser) parseDefine(start int, tags []string, name string, doc []string) error {
	o := &OpDef{Name: name, Doc: doc, File: p.file, Line: start + 1}
	for _, tag := range tags {
		switch tag {
		case "Logical":
			o.Kind = KindLogical
		case "Physical":
			o.Kind = KindPhysical
		case "Enforcer":
			o.Kind = KindEnforcer
		case "Scalar":
			o.Kind = KindScalar
		case "CustomName":
			o.CustomName = true
		case "PtrIdentity":
			o.PtrIdentity = true
		case "Hand":
			o.Hand = true
		case "Normalized":
			o.Normalized = true
		default:
			return p.errf(start, "unknown operator tag %q", tag)
		}
	}
	if o.Kind == "" {
		return p.errf(start, "operator %s needs a kind tag (Logical, Physical, Enforcer or Scalar)", name)
	}
	sawChildren := false
	for p.pos < len(p.lines) {
		idx := p.pos
		line := strings.TrimSpace(p.lines[idx])
		p.pos++
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == "}":
			if !sawChildren && !o.Hand {
				return p.errf(start, "operator %s is missing a `children N` directive", name)
			}
			p.cat.Ops = append(p.cat.Ops, o)
			return nil
		}
		fields := strings.Fields(line)
		if fields[0] == "children" {
			if len(fields) != 2 {
				return p.errf(idx, "expected `children N`")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < -1 {
				return p.errf(idx, "children count must be an integer >= -1, found %q", fields[1])
			}
			o.Arity = n
			sawChildren = true
			continue
		}
		if fields[0] == "name" && len(fields) == 2 {
			o.Display = fields[1]
			continue
		}
		if len(fields) < 2 {
			return p.errf(idx, "expected `Field Type [noident] [dxl=Name]`")
		}
		f := &FieldDef{Name: fields[0], Type: fields[1], Line: idx + 1}
		for _, opt := range fields[2:] {
			switch {
			case opt == "noident":
				f.NoIdent = true
			case strings.HasPrefix(opt, "dxl="):
				f.DXLName = strings.TrimPrefix(opt, "dxl=")
			default:
				return p.errf(idx, "unknown field option %q", opt)
			}
		}
		o.Fields = append(o.Fields, f)
	}
	return p.errf(start, "unterminated define %s", name)
}

func (p *parser) parseRule(start int, tags []string, name string, doc []string) error {
	r := &RuleDef{Name: name, Doc: doc, File: p.file, Line: start + 1}
	for _, tag := range tags {
		switch tag {
		case "Exploration":
			r.Kind = KindExploration
		case "Implementation":
			r.Kind = KindImplementation
		default:
			return p.errf(start, "unknown rule tag %q", tag)
		}
	}
	if r.Kind == "" {
		return p.errf(start, "rule %s needs a kind tag (Exploration or Implementation)", name)
	}
	for p.pos < len(p.lines) {
		idx := p.pos
		line := strings.TrimSpace(p.lines[idx])
		p.pos++
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == "}":
			if r.Match == "" {
				return p.errf(start, "rule %s is missing a `match OpName` directive", name)
			}
			p.cat.Rules = append(p.cat.Rules, r)
			return nil
		case line == "check":
			r.Check = true
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "match" && len(fields) == 2 {
			r.Match = fields[1]
			continue
		}
		return p.errf(idx, "expected `match OpName`, `check` or `}`, found %q", line)
	}
	return p.errf(start, "unterminated rule %s", name)
}
