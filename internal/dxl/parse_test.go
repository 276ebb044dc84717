package dxl

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

	"orca/internal/core"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/tpcds"
)

// tpcdsCorpus is the TPC-DS scale-2 catalog as a metadata document, the 32
// workload queries as DXL query documents, and their optimized plans.
type tpcdsCorpus struct {
	catalog string
	queries []string
	plans   []*ops.Expr
}

var (
	corpusOnce sync.Once
	corpus     tpcdsCorpus
)

func loadCorpus(tb testing.TB) *tpcdsCorpus {
	tb.Helper()
	corpusOnce.Do(func() {
		p := md.NewMemProvider()
		tpcds.BuildCatalog(p, tpcds.Scale{Factor: 2})
		corpus.catalog = HarvestAll(p).Render()
		for _, q := range tpcds.Workload() {
			corpus.queries = append(corpus.queries, SerializeQuery(bindOn(tb, p, q.SQL)).Render())
			res, err := core.Optimize(bindOn(tb, p, q.SQL), core.DefaultConfig(16))
			if err != nil {
				tb.Fatalf("%s: optimize: %v", q.Name, err)
			}
			corpus.plans = append(corpus.plans, res.Plan)
		}
	})
	if len(corpus.queries) == 0 {
		tb.Fatal("TPC-DS corpus failed to build")
	}
	return &corpus
}

// ruleSeeds exercise each rule of the XML subset ParseXML accepts, one
// document per rule, each next to a variant that breaks it.
var ruleSeeds = []string{
	`<dxl:A><![CDATA[ a < b & c ]]]></dxl:A>`,
	`<dxl:A><![CDATA[ a`,
	`<dxl:A k="&#60;&#x3C;&#x10FFFF;&lt;&gt;&amp;&apos;&quot;">&#65;&#x42;&#xD800;</dxl:A>`,
	`<dxl:A k="&#x110000;"/>`,
	`<dxl:A>&#0;</dxl:A>`,
	`<dxl:A>&nbsp;</dxl:A>`,
	`<!DOCTYPE dxl [ <!ENTITY e "x>"> <!-- c > --> <!ELEMENT A (#PCDATA)> ]><dxl:A/>`,
	`<dxl:A/><!DOCTYPE dxl>`,
	`<!DOCTYPE a [<!ENTITY x '>'> <!x <y> <!-- -- > --> <!-x> ]><dxl:A/>`,
	`<!><dxl:A/>>`,
	`<!<<dxl:A/>>><dxl:A/>`,
	`<dxl:A><![CDATA[x]]]]>></dxl:A>`,
	`<dxl:A><![CDATA[x]]>]]></dxl:A>`,
	"<dxl:A k=\"a\r\nb\rc\">x\r\ny\r</dxl:A>",
	"<dxl:A k=\"\xff\"/>",
	"<dxl:A>\x01</dxl:A>",
	`<dxl:A><!-- a - b --></dxl:A>`,
	`<dxl:A><!-- a -- b --></dxl:A>`,
	`<?xml version="1.0" encoding="utf-8"?><dxl:A/>`,
	`<?xml version="1.0" encoding="latin1"?><dxl:A/>`,
	`<?xml version="1.1"?><dxl:A/>`,
	`<dxl:A k=v/>`,
	`<a:b:c/>`,
	`<:a b:="1" :c="2"/>`,
	`<dxl:A xmlns:dxl="http://greenplum.com/dxl/2010/12/" xmlns="d" dxl="x" p:dxl="y" b="1" a="2" b="3"/>`,
	`<dxl:A>]]></dxl:A>`,
	"<dxl:A>  t  </dxl:A>",
	`<dxl:A> x <!-- c --> y <dxl:B/> z </dxl:A>`,
	`<dxl:A><dxl:B></dxl:A></dxl:B>`,
	`<dxl:Ä é="1"/>`,
}

// FuzzParseXML holds ParseXML to its reference, the encoding/xml-based
// parser it replaced: for every document both reject it, or both return
// equal trees. Run beyond the seed corpus with
//
//	go test -run '^$' -fuzz FuzzParseXML -fuzztime 10s ./internal/dxl/
func FuzzParseXML(f *testing.F) {
	c := loadCorpus(f)
	for _, tc := range parseXMLCases {
		f.Add(tc.doc)
	}
	for _, doc := range ruleSeeds {
		f.Add(doc)
	}
	f.Add(c.catalog)
	for i, doc := range c.queries {
		f.Add(doc)
		f.Add(SerializePlan(c.plans[i]).Render())
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseXML(doc)
		want, refErr := parseXMLRef(doc)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("ParseXML error %v, reference error %v", err, refErr)
		case err != nil:
			if msg := err.Error(); !strings.HasPrefix(msg, "dxl: ") || !strings.Contains(msg, " line ") {
				t.Fatalf("error %q lacks the dxl: prefix or the line", msg)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("trees differ:\ngot  %s\nwant %s", got.Render(), want.Render())
		}
	})
}

// TestXMLNameTables checks the name-character tables against the reference
// for every non-ASCII code point of the Basic Multilingual Plane, as a name's
// first and as its second character.
func TestXMLNameTables(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 120k documents twice")
	}
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseXML(doc)
			_, refErr := parseXMLRef(doc)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%q: ParseXML error %v, reference error %v", doc, err, refErr)
			}
		}
	}
}

// TestParseXMLCopiesStrings: no string of a parsed tree points into the
// request document, and DXL's element names and attribute keys are the
// interned ones.
func TestParseXMLCopiesStrings(t *testing.T) {
	c := loadCorpus(t)
	docs := append([]string{c.catalog}, c.queries...)
	for i := range c.plans {
		docs = append(docs, SerializePlan(c.plans[i]).Render())
	}
	for _, doc := range docs {
		root, err := ParseXML(doc)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
		hi := lo + uintptr(len(doc))
		aliases := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return s != "" && lo <= p && p < hi
		}
		interned := func(s string) bool {
			return unsafe.StringData(intern(s)) == unsafe.StringData(s)
		}
		for stack := []*Node{root}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], n.Children...)
			if !interned(n.Name) {
				t.Errorf("element name %q is not interned", n.Name)
			}
			if aliases(n.Text) {
				t.Errorf("<%s> text aliases the document", n.Name)
			}
			for _, a := range n.Attrs {
				if !interned(a.Key) {
					t.Errorf("attribute key %q of <%s> is not interned", a.Key, n.Name)
				}
				if aliases(a.Val) {
					t.Errorf("%s=%q of <%s> aliases the document", a.Key, a.Val, n.Name)
				}
			}
		}
	}
	root, err := ParseXML(`<p:Unknown p:k="&amp;v" q="w">text</p:Unknown>`)
	if err != nil {
		t.Fatal(err)
	}
	want := &Node{Name: "Unknown", Attrs: []Attr{{"k", "&v"}, {"q", "w"}}, Text: "text"}
	if !reflect.DeepEqual(root, want) {
		t.Errorf("got %+v, want %+v", root, want)
	}
}

// TestParsedTreeIsMutable: nodes, attribute lists and child lists share
// slabs, yet Set and Add on one node leave its neighbours alone.
func TestParsedTreeIsMutable(t *testing.T) {
	root, err := ParseXML(`<dxl:A><dxl:B x="1"/><dxl:C y="2"><dxl:D/></dxl:C></dxl:A>`)
	if err != nil {
		t.Fatal(err)
	}
	b, c := root.Children[0], root.Children[1]
	b.Set("z", "3")
	b.Add(El("E"))
	root.Add(El("F"))
	want := &Node{Name: "A", Children: []*Node{
		{Name: "B", Attrs: []Attr{{"x", "1"}, {"z", "3"}}, Children: []*Node{{Name: "E"}}},
		{Name: "C", Attrs: []Attr{{"y", "2"}}, Children: []*Node{{Name: "D"}}},
		{Name: "F"},
	}}
	if !reflect.DeepEqual(root, want) || c != root.Children[1] {
		t.Errorf("got %s\nwant %s", root.Render(), want.Render())
	}
}

// TestParseXMLLinear: a start tag whose attributes arrive in reverse order,
// and an element whose text comes in many runs, cost linear time. Inserting
// each attribute in order, or concatenating each run onto the text, would
// take minutes here.
func TestParseXMLLinear(t *testing.T) {
	const n = 200000
	var attrs, runs strings.Builder
	attrs.WriteString("<dxl:A")
	runs.WriteString("<dxl:A>")
	for i := n; i > 0; i-- {
		fmt.Fprintf(&attrs, ` k%07d="%d"`, i, i)
		runs.WriteString("x<!---->")
	}
	attrs.WriteString(` k0000001="last"/>`)
	runs.WriteString("</dxl:A>")

	start := time.Now()
	a, err := ParseXML(attrs.String())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseXML(runs.String())
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("parsing took %v", d)
	}
	if len(a.Attrs) != n || a.Attrs[0] != (Attr{"k0000001", "last"}) || a.Attrs[n-1].Key != fmt.Sprintf("k%07d", n) {
		t.Errorf("attributes: %d, first %v, last %v", len(a.Attrs), a.Attrs[0], a.Attrs[len(a.Attrs)-1])
	}
	if r.Text != strings.Repeat("x", n) {
		t.Errorf("text of %d bytes, want %d", len(r.Text), n)
	}
}

// The benchmarks store their results here so the calls are kept.
var (
	parseSink  *Node
	renderSink string
)

// BenchmarkParseXML parses the 32 TPC-DS query documents, one per op.
func BenchmarkParseXML(b *testing.B) {
	c := loadCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ParseXML(c.queries[i%len(c.queries)])
		if err != nil {
			b.Fatal(err)
		}
		parseSink = n
	}
}

// BenchmarkRenderPlan serializes and renders the 32 TPC-DS plans, one per
// op: what a DXL reply costs after the plan is in hand.
func BenchmarkRenderPlan(b *testing.B) {
	c := loadCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderSink = SerializePlan(c.plans[i%len(c.plans)]).Render()
	}
}
