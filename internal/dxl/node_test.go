package dxl

import (
	"reflect"
	"strings"
	"testing"
)

var parseXMLCases = []struct {
	name, doc string
	want      *Node // nil: the document must be rejected
}{
	{
		name: "entities in attributes and text",
		doc:  `<?xml version="1.0"?><dxl:A k="a&amp;b" j="x&quot;y"><dxl:B>t&lt;1</dxl:B></dxl:A>`,
		want: &Node{Name: "A",
			Attrs:    []Attr{{Key: "j", Val: `x"y`}, {Key: "k", Val: "a&b"}},
			Children: []*Node{{Name: "B", Text: "t<1"}}},
	},
	{
		name: "whitespace, comments and processing instructions around the root",
		doc:  "<!-- c --><dxl:A xmlns:dxl=\"http://x\">\n  <dxl:B/>\n</dxl:A>\n<!-- c --><?pi x?>\n",
		want: &Node{Name: "A", Children: []*Node{{Name: "B"}}},
	},
	{
		name: "text runs, CDATA and character references",
		doc:  "<dxl:A>\r\n a <!-- c --> b<![CDATA[ <c> ]]>&#x64;&#101;\r\n</dxl:A>",
		want: &Node{Name: "A", Text: "ab<c>de"},
	},
	{
		name: "duplicate attribute: the last wins",
		doc:  `<dxl:A b="1" a="2" b="3"/>`,
		want: &Node{Name: "A", Attrs: []Attr{{Key: "a", Val: "2"}, {Key: "b", Val: "3"}}},
	},
	{name: "two roots", doc: `<dxl:A><dxl:B/></dxl:A><dxl:C><dxl:D/></dxl:C>`},
	{name: "trailing garbage", doc: `<dxl:A><dxl:B/></dxl:A>junk<<<`},
	{name: "mismatched close tag", doc: `<dxl:A><dxl:B></dxl:C></dxl:A>`},
	{name: "mismatched close prefix", doc: `<dxl:A></A>`},
	{name: "unclosed element", doc: `<dxl:A><dxl:B/>`},
	{name: "stray close tag", doc: `</dxl:A>`},
	{name: "empty document", doc: ``},
	{name: "whitespace only", doc: " \n<?xml version=\"1.0\"?>\n"},
	{name: "directive after the root", doc: `<dxl:A/><!DOCTYPE A>`},
	{name: "unknown entity", doc: `<dxl:A>&nbsp;</dxl:A>`},
	{name: "unquoted attribute", doc: `<dxl:A k=v/>`},
	{name: "two colons in a name", doc: `<a:b:c/>`},
}

func TestParseXML(t *testing.T) {
	for _, c := range parseXMLCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseXML(c.doc)
			ref, refErr := parseXMLRef(c.doc)
			if c.want == nil {
				if err == nil || !strings.HasPrefix(err.Error(), "dxl: ") {
					t.Fatalf("ParseXML accepted or mis-reported a malformed document: %v", err)
				}
				if refErr == nil {
					t.Fatalf("the reference parser accepts it: %s", ref.Render())
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseXML: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("got %s\nwant %s", got.Render(), c.want.Render())
			}
			if !reflect.DeepEqual(ref, c.want) {
				t.Errorf("reference parser: got %v, %v", ref, refErr)
			}
		})
	}
}

func TestSetKeepsAttrsSorted(t *testing.T) {
	n := El("X").Set("b", "1").Set("a", "2").Set("c", "3").Set("b", "4")
	want := []Attr{{"a", "2"}, {"b", "4"}, {"c", "3"}}
	if !reflect.DeepEqual(n.Attrs, want) {
		t.Errorf("Attrs = %v, want %v", n.Attrs, want)
	}
	if n.Attr("b") != "4" || n.Attr("z") != "" {
		t.Errorf("Attr lookups: b=%q z=%q", n.Attr("b"), n.Attr("z"))
	}
	if got := n.Render(); !strings.HasSuffix(got, "<dxl:X a=\"2\" b=\"4\" c=\"3\"/>\n") {
		t.Errorf("Render = %q", got)
	}
}
