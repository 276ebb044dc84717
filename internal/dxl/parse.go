package dxl

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"orca/internal/fault"
)

// ParseXML reads a DXL document into a Node tree. The document must hold
// exactly one root element; see the package comment for the checks made.
//
// ParseXML is one pass over doc that builds the tree as it goes, with no
// recursion and in linear time. It accepts exactly the documents
// encoding/xml's strict RawToken accepted (the five predefined entities and
// character references, \r\n normalisation, CDATA, comments, processing
// instructions with the <?xml?> version and encoding checks, directives
// before the root, name and character validity), and produces the same
// tree: element names without their prefix, attributes keyed by local name
// without xmlns:* and dxl declarations, trimmed text.
//
// No string in the tree aliases doc. Element names and attribute keys are
// interned from DXL's vocabulary (any other name is copied), and each
// attribute value and text is copied once, so a string a caller keeps, such
// as a column name in a cached plan, holds on to its own bytes only.
func ParseXML(doc string) (*Node, error) {
	if err := fault.Inject(fault.PointDXLParse); err != nil {
		return nil, err
	}
	s := newScanner(doc)
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s.root, nil
}

// syntaxError is a document ParseXML rejects.
type syntaxError struct {
	line int
	msg  string
}

func (e *syntaxError) Error() string {
	return "dxl: syntax error on line " + strconv.Itoa(e.line) + ": " + e.msg
}

// vocabulary holds DXL's element names and attribute keys, open-addressed
// by vocabSlot.
var vocabulary = func() (t [vocabSize]string) {
	words := strings.Fields(`
		AggElem ArithOp BoolExpr Bucket Case ColStats Column Columns Comparison
		Const ConsumerCols DXLMessage Distribution Else ExpectedPlan FuncExpr
		Ident Index IndexCond IndexList IndexRef InList InputCols InputColumns
		IsNull JoinPred LimitOrder LogicalCTEAnchor LogicalCTEConsumer
		LogicalGbAgg LogicalGet LogicalJoin LogicalLimit LogicalNAryJoin
		LogicalProject LogicalSelect LogicalUnionAll LogicalWindow MergeOrder
		Metadata OutputCols OutputColumns Param Partition Partitions PhysicalOp
		Plan Pred Predicate ProducerColumns ProjElem Query RelStats Relation
		Residual ScanCols ScanFilter SortOrder SortingColumn SortingColumnList
		Stacktrace SubPlan Subquery SubqueryInput SubqueryTest TableDescriptor
		Test Thread TraceFlags Type UnknownLogical UnknownScalar When WinElem
		WindowFunc WindowOrder

		AggName Alias Attno Base CTEId Code ColId ColName Component Cols Cost
		Count CteId Desc DisabledRules Dist Distinct Distincts
		DistributionColumns DistributionPolicy Faults Fn Go GroupCols HasCount
		HashCols Hi Id IndexOid IsRedistributable IsUnique JoinType KeyCols Kind
		LeftKeys Length Lo Mdid Mode NDV Name Negated NullFrac Nullable Offset
		Op Operator Ord Order Ordinal OutCol Params PartCol PartitionCols Parts
		ProducerCols Pruned RelMdid RelOid RightKeys Rows Segments StatsMdid
		SubCol SystemIds Val Workers`)
	for _, w := range words {
		i := vocabSlot(w)
		for t[i] != "" {
			i = (i + 1) % vocabSize
		}
		t[i] = w
	}
	return t
}()

// vocabSize is vocabulary's capacity, about four slots per word.
const vocabSize = 512

// vocabSlot is where a non-empty name's probe in vocabulary starts: a hash
// of its length and three of its bytes, cheaper than hashing every byte.
func vocabSlot(name string) int {
	return (len(name)*131 + int(name[0])*31 + int(name[len(name)/2])*7 + int(name[len(name)-1])) % vocabSize
}

// intern returns DXL's copy of a name, or a copy of one outside it.
func intern(name string) string {
	if name == "" {
		return ""
	}
	for i := vocabSlot(name); vocabulary[i] != ""; i = (i + 1) % vocabSize {
		if vocabulary[i] == name {
			return vocabulary[i]
		}
	}
	return strings.Clone(name)
}

// plain marks the bytes a character-data run passes without a second look:
// tab, newline and printable ASCII other than markup, quotes and '&'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range []byte("<>&\"'") {
		t[c] = false
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// scanner is one ParseXML pass. The tree is carved out of slabs, so a
// document costs a few chunk allocations plus one copy per value rather
// than an allocation per node, attribute list and child list.
type scanner struct {
	doc  string
	pos  int
	root *Node

	open     []openElem // elements whose close tag is still to come, innermost last
	kids     []*Node    // children of the open elements, in document order
	attrs    []Attr     // the start tag being read
	unsorted bool       // an attribute in attrs does not sort after the one before it
	buf      []byte     // a value with references or carriage returns, decoded

	nodes     []Node
	attrSlab  []Attr
	kidSlab   []*Node
	nodeChunk int // node and child slab refill size
	attrChunk int // attribute slab refill size
}

type openElem struct {
	node *Node
	name string // the raw tag name, prefix included, which the close tag must repeat
	kids int    // index in scanner.kids of the element's first child
	text []byte // the element's text so far once a second run joins it
}

// newScanner sizes the slabs from the document: one node per '/' (each
// element has one, in its close tag or self-closing end) and one attribute
// per pair of quotes, capped so a large document refills them
// rather than reserving its worst case up front.
func newScanner(doc string) *scanner {
	return &scanner{
		doc:       doc,
		nodeChunk: min(max(strings.Count(doc, "/"), 4), 1024),
		attrChunk: min(max(strings.Count(doc, `"`)/2, 4), 4096),
	}
}

func (s *scanner) scan() error {
	for s.pos < len(s.doc) {
		if s.doc[s.pos] != '<' {
			if err := s.text(); err != nil {
				return err
			}
			continue
		}
		if s.pos+1 == len(s.doc) {
			return s.eof()
		}
		var err error
		switch s.doc[s.pos+1] {
		case '/':
			err = s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			err = s.markup()
		default:
			err = s.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(s.open) > 0 {
		return s.fail(len(s.doc), "element <"+s.open[len(s.open)-1].name+"> not closed")
	}
	if s.root == nil {
		return s.fail(len(s.doc), "empty document")
	}
	return nil
}

// fail is the error for a syntax error at byte offset at.
func (s *scanner) fail(at int, msg string) *syntaxError {
	return &syntaxError{line: 1 + strings.Count(s.doc[:at], "\n"), msg: msg}
}

func (s *scanner) eof() *syntaxError {
	return s.fail(len(s.doc), "unexpected EOF")
}

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.doc) {
		switch s.doc[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// name reads an XML name at s.pos; missing describes what was expected when
// there is none.
func (s *scanner) name(missing string) (string, error) {
	start := s.pos
	i := start
	var ascii byte
	for i < len(s.doc) && nameByte[s.doc[i]] {
		ascii |= s.doc[i]
		i++
	}
	switch {
	case i == len(s.doc):
		return "", s.eof()
	case i == start:
		return "", s.fail(start, missing)
	case ascii < utf8.RuneSelf && !nameStartASCII(s.doc[start]),
		ascii >= utf8.RuneSelf && !isXMLName(s.doc[start:i]):
		return "", s.fail(start, "invalid XML name: "+s.doc[start:i])
	}
	s.pos = i
	return s.doc[start:i], nil
}

// qname reads an element or attribute name, which may carry one prefix.
func (s *scanner) qname(missing string) (string, error) {
	start := s.pos
	name, err := s.name(missing)
	if err != nil {
		return "", err
	}
	if strings.Count(name, ":") > 1 {
		return "", s.fail(start, missing)
	}
	return name, nil
}

// splitName splits a qualified name into prefix and local name; a colon at
// either end is part of the local name.
func splitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// startTag reads <name attr="value" ...> or its self-closing form.
func (s *scanner) startTag() error {
	at := s.pos
	s.pos++
	name, err := s.qname("expected element name after <")
	if err != nil {
		return err
	}
	s.attrs = s.attrs[:0]
	empty := false
	for {
		s.space()
		if s.pos == len(s.doc) {
			return s.eof()
		}
		if s.doc[s.pos] == '>' {
			s.pos++
			break
		}
		if s.doc[s.pos] == '/' {
			if s.pos+1 == len(s.doc) {
				return s.eof()
			}
			if s.doc[s.pos+1] != '>' {
				return s.fail(s.pos, "expected /> in element")
			}
			s.pos += 2
			empty = true
			break
		}
		if err := s.attr(); err != nil {
			return err
		}
	}
	if s.root != nil && len(s.open) == 0 {
		return s.fail(at, "second root element <"+name+"> after <"+s.root.Name+">")
	}
	if s.unsorted {
		s.attrs = sortAttrs(s.attrs)
		s.unsorted = false
	}
	n := s.node()
	n.Name = intern(name[strings.IndexByte(name, ':')+1:])
	n.Attrs = carve(&s.attrSlab, s.attrs, s.attrChunk)
	if len(s.open) == 0 {
		s.root = n
	} else {
		s.kids = append(s.kids, n)
	}
	if !empty {
		s.open = append(s.open, openElem{node: n, name: name, kids: len(s.kids)})
	}
	return nil
}

// attr reads name="value" into s.attrs. Namespace declarations and the dxl
// attribute are checked but not kept.
func (s *scanner) attr() error {
	name, err := s.qname("expected attribute name in element")
	if err != nil {
		return err
	}
	s.space()
	if s.pos == len(s.doc) {
		return s.eof()
	}
	if s.doc[s.pos] != '=' {
		return s.fail(s.pos, "attribute name without = in element")
	}
	s.pos++
	s.space()
	if s.pos == len(s.doc) {
		return s.eof()
	}
	quote := s.doc[s.pos]
	if quote != '"' && quote != '\'' {
		return s.fail(s.pos, "unquoted or missing attribute value in element")
	}
	s.pos++
	start := s.pos
	end, decode, err := s.run(quote)
	if err != nil {
		return err
	}
	s.pos = end + 1
	prefix, key := splitName(name)
	if key == "dxl" || prefix == "xmlns" {
		return nil
	}
	var val string
	if decode {
		val = string(s.decode(s.doc[start:end], true))
	} else {
		val = strings.Clone(s.doc[start:end])
	}
	key = intern(key)
	if n := len(s.attrs); n > 0 && s.attrs[n-1].Key >= key {
		s.unsorted = true
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	return nil
}

// sortAttrs orders a start tag's attributes by key and keeps the last of
// each duplicate key, which is what calling Set on each in turn leaves, in
// O(n log n) where Set would be quadratic.
func sortAttrs(attrs []Attr) []Attr {
	slices.SortStableFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	out := attrs[:0]
	for i, a := range attrs {
		if i+1 == len(attrs) || attrs[i+1].Key != a.Key {
			out = append(out, a)
		}
	}
	return out
}

// endTag reads </name>, which must close the innermost open element.
func (s *scanner) endTag() error {
	at := s.pos
	s.pos += 2
	name, err := s.qname("expected element name after </")
	if err != nil {
		return err
	}
	s.space()
	if s.pos == len(s.doc) {
		return s.eof()
	}
	if s.doc[s.pos] != '>' {
		return s.fail(s.pos, "invalid characters between </"+name+" and >")
	}
	s.pos++
	if len(s.open) == 0 {
		return s.fail(at, "unexpected close tag </"+name+">")
	}
	top := s.open[len(s.open)-1]
	if top.name != name {
		return s.fail(at, "element <"+top.name+"> closed by </"+name+">")
	}
	top.node.Children = carve(&s.kidSlab, s.kids[top.kids:], s.nodeChunk)
	if top.text != nil {
		top.node.Text = string(top.text)
	}
	s.kids = s.kids[:top.kids]
	s.open = s.open[:len(s.open)-1]
	return nil
}

// procInst reads <?target ...?>; an <?xml?> declaration must declare
// version 1.0 and UTF-8, if anything.
func (s *scanner) procInst() error {
	s.pos += 2
	target, err := s.name("expected target name after <?")
	if err != nil {
		return err
	}
	s.space()
	n := strings.Index(s.doc[s.pos:], "?>")
	if n < 0 {
		return s.eof()
	}
	body := s.doc[s.pos : s.pos+n]
	if target == "xml" {
		if v := procInstParam(body, "version="); v != "" && v != "1.0" {
			return s.fail(s.pos, "unsupported XML version "+strconv.Quote(v))
		}
		if enc := procInstParam(body, "encoding="); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return s.fail(s.pos, "unsupported encoding "+strconv.Quote(enc))
		}
	}
	s.pos += n + 2
	return nil
}

// procInstParam returns the quoted value after param (`version=`, say) in a
// processing instruction's body, or "": the first occurrence followed by a
// quote wins.
func procInstParam(body, param string) string {
	for i := 0; ; {
		k := strings.Index(body[i:], param)
		if k < 0 || i+k+len(param) >= len(body) {
			return ""
		}
		i += k + len(param)
		if q := body[i]; q == '\'' || q == '"' {
			j := strings.IndexByte(body[i+1:], q)
			if j < 0 {
				return ""
			}
			return body[i+1 : i+1+j]
		}
		i++
	}
}

// markup reads what follows "<!": a comment, a CDATA section or a directive.
func (s *scanner) markup() error {
	at := s.pos
	s.pos += 2
	if s.pos == len(s.doc) {
		return s.eof()
	}
	switch s.doc[s.pos] {
	case '-':
		if !strings.HasPrefix(s.doc[s.pos:], "--") {
			return s.fail(s.pos, "invalid sequence <!- not part of <!--")
		}
		s.pos += 2
		// The first "--" in a comment must be its end.
		n := strings.Index(s.doc[s.pos:], "--")
		if n < 0 || s.pos+n+2 == len(s.doc) {
			return s.eof()
		}
		if s.doc[s.pos+n+2] != '>' {
			return s.fail(s.pos+n, `invalid sequence "--" not allowed in comments`)
		}
		s.pos += n + 3
		return nil
	case '[':
		if !strings.HasPrefix(s.doc[s.pos:], "[CDATA[") {
			return s.fail(s.pos, "invalid <![ sequence")
		}
		s.pos += len("[CDATA[")
		return s.cdata()
	}
	return s.directive(at)
}

// directive skips <!DOCTYPE ...> and the like, which may nest brackets and
// comments and quote '>'. Only the prolog may hold one.
func (s *scanner) directive(at int) error {
	doc := s.doc
	// The byte after "<!" is the directive's first and is not interpreted.
	i := s.pos + 1
	var quote byte
	depth := 0
	for {
		if i == len(doc) {
			return s.eof()
		}
		c := doc[i]
		i++
		if quote == 0 && c == '>' && depth == 0 {
			break
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			// "<!--" opens a comment; any other '<' nests, and the byte that
			// told them apart is handled in its own right.
			for k := 0; k < len("!--"); k++ {
				if i == len(doc) {
					return s.eof()
				}
				c = doc[i]
				i++
				if c != "!--"[k] {
					depth++
					goto handle
				}
			}
			n := strings.Index(doc[i:], "-->")
			if n < 0 {
				return s.eof()
			}
			i += n + len("-->")
		}
	}
	s.pos = i
	if s.root != nil {
		return s.fail(at, "directive after the root element")
	}
	return nil
}

// text reads character data up to the next '<'. Leading white space is
// trimmed anyway, so the common run between two tags is only skipped.
func (s *scanner) text() error {
	s.space()
	if s.pos == len(s.doc) || s.doc[s.pos] == '<' {
		return nil
	}
	start := s.pos
	end, decode, err := s.run('<')
	if err != nil {
		return err
	}
	s.pos = end
	return s.addText(start, end, decode, true)
}

// cdata reads a CDATA section's content, after "<![CDATA[".
func (s *scanner) cdata() error {
	start := s.pos
	n := strings.Index(s.doc[start:], "]]>")
	if n < 0 {
		return s.fail(len(s.doc), "unexpected EOF in CDATA section")
	}
	end := start + n
	decode := false
	for i := start; i < end; {
		c := s.doc[i]
		switch {
		case c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n':
			i++
		case c == '\r':
			decode = true
			i++
		default:
			size, err := s.char(i)
			if err != nil {
				return err
			}
			i += size
		}
	}
	s.pos = end + len("]]>")
	return s.addText(start, end, decode, false)
}

// run scans the character data at s.pos up to its terminator: quote for an
// attribute value, '<' or the end of the document for text (quote '<'). It
// checks every character and reference, and reports the terminator's
// offset and whether the run needs decoding.
func (s *scanner) run(quote byte) (end int, decode bool, err error) {
	doc := s.doc
	i := s.pos
	for {
		for i < len(doc) && plain[doc[i]] {
			i++
		}
		if i == len(doc) {
			if quote == '<' {
				return i, decode, nil
			}
			return 0, false, s.eof()
		}
		switch c := doc[i]; c {
		case quote:
			return i, decode, nil
		case '<':
			return 0, false, s.fail(i, "unescaped < inside quoted string")
		case '&':
			_, n := charRef(doc[i:])
			if n == 0 {
				return 0, false, s.fail(i, "invalid character entity")
			}
			i += n
			decode = true
		case '\r':
			i++
			decode = true
		case '>':
			if quote == '<' && i-2 >= s.pos && doc[i-2:i] == "]]" {
				return 0, false, s.fail(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case '"', '\'':
			i++
		default:
			size, err := s.char(i)
			if err != nil {
				return 0, false, err
			}
			i += size
		}
	}
}

// char checks the character at doc[i], which is not plain, and returns its
// length.
func (s *scanner) char(i int) (int, error) {
	r, size := utf8.DecodeRuneInString(s.doc[i:])
	if r == utf8.RuneError && size == 1 {
		return 0, s.fail(i, "invalid UTF-8")
	}
	if !inCharRange(r) {
		return 0, s.fail(i, "illegal character code "+strconv.QuoteRune(r))
	}
	return size, nil
}

// charRef reads the reference at the start of s ("&amp;", "&#60;",
// "&#x3C;") and returns the character and the reference's length, or 0 for
// a reference XML does not define.
func charRef(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		for _, e := range [...]struct {
			ref string
			r   rune
		}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
			if strings.HasPrefix(s, e.ref) {
				return e.r, len(e.ref)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if strings.HasPrefix(s, "&#x") {
		i, base = 3, 16
	}
	start := i
	var v rune
	for ; i < len(s); i++ {
		d := rune(16)
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d >= base {
			break
		}
		if v <= utf8.MaxRune {
			v = v*base + d
		}
	}
	if i == start || i == len(s) || s[i] != ';' || v > utf8.MaxRune {
		return 0, 0
	}
	if 0xD800 <= v && v <= 0xDFFF {
		v = utf8.RuneError // what string(rune(v)) makes of a surrogate
	}
	if !inCharRange(v) {
		return 0, 0
	}
	return v, i + 1
}

// decode returns raw with its references replaced (when refs) and each \r
// or \r\n turned into \n, in s.buf.
func (s *scanner) decode(raw string, refs bool) []byte {
	s.buf = s.buf[:0]
	var prev byte
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '&' && refs:
			r, n := charRef(raw[i:])
			s.buf = utf8.AppendRune(s.buf, r)
			i += n - 1
			prev = 0
			continue
		case c == '\r':
			s.buf = append(s.buf, '\n')
		case c == '\n' && prev == '\r':
		default:
			s.buf = append(s.buf, c)
		}
		prev = c
	}
	return s.buf
}

// addText trims the text doc[start:end] and appends it to the innermost open
// element; outside the root only white space may appear. The first run is
// copied into the node; further runs (split from it by a comment, a CDATA
// section or a child) are joined in a buffer the close tag turns into the
// node's text, so many runs cost linear time.
func (s *scanner) addText(start, end int, decode, refs bool) error {
	var b []byte // the trimmed run when it needed decoding
	var t string // the trimmed run when it did not
	if decode {
		b = bytes.TrimSpace(s.decode(s.doc[start:end], refs))
	} else {
		t = strings.TrimSpace(s.doc[start:end])
	}
	if len(b) == 0 && t == "" {
		return nil
	}
	if len(s.open) == 0 {
		return s.fail(start, "text outside the root element")
	}
	e := &s.open[len(s.open)-1]
	switch {
	case e.node.Text == "" && decode:
		e.node.Text = string(b)
	case e.node.Text == "":
		e.node.Text = strings.Clone(t)
	default:
		if e.text == nil {
			e.text = append([]byte(nil), e.node.Text...)
		}
		e.text = append(append(e.text, b...), t...)
	}
	return nil
}

// node returns a zero Node from the node slab.
func (s *scanner) node() *Node {
	if len(s.nodes) == cap(s.nodes) {
		s.nodes = make([]Node, 0, s.nodeChunk)
	}
	s.nodes = s.nodes[:len(s.nodes)+1]
	return &s.nodes[len(s.nodes)-1]
}

// carve copies items into the slab and returns the copy, or nil for none.
// The copy's capacity ends at its length, so appending to it (a later Set
// or Add) reallocates rather than overwriting the slab's next entries.
func carve[T any](slab *[]T, items []T, chunk int) []T {
	n := len(items)
	if n == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, chunk))
	}
	i := len(*slab)
	*slab = append(*slab, items...)
	return (*slab)[i : i+n : i+n]
}
