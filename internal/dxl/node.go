// Package dxl implements the Data eXchange Language (paper §3): the
// XML-based format through which the stand-alone optimizer communicates with
// host systems. It serializes and parses queries (input), plans (output) and
// metadata, provides the file-based metadata provider of Figure 9, and is
// the wire format of AMPERe dumps (§6.1).
//
// Every document passes through Node, so its encoding and decoding are on
// the hot path of each DXL request. A Node keeps its attributes as a slice
// sorted by key, which is the order Render writes them in: no map per node
// and no sort per render. Render writes straight into one pre-sized builder
// through a shared attribute escaper. ParseXML is a single pass over the
// document (parse.go) that builds the tree directly; it accepts exactly the
// XML subset encoding/xml's RawToken accepted, plus the checks a DXL
// document needs: close tags match their open tags, no element is left open
// at EOF, and nothing but whitespace, comments and processing instructions
// appears outside the single root element.
package dxl

import (
	"encoding/xml"
	"strings"
)

// Node is a generic XML element; the serializers build Node trees and the
// parsers interpret them, which keeps the operator mapping in one place
// instead of scattering it over struct tags.
type Node struct {
	Name     string
	Attrs    []Attr // sorted by Key, keys unique; maintained by Set
	Children []*Node
	Text     string
}

// Attr is one attribute of a Node.
type Attr struct {
	Key, Val string
}

// El builds an element.
func El(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// Set sets an attribute, keeping Attrs sorted by key (an existing key is
// overwritten), and returns the node for chaining.
func (n *Node) Set(key, val string) *Node {
	i := 0
	for i < len(n.Attrs) && n.Attrs[i].Key < key {
		i++
	}
	if i < len(n.Attrs) && n.Attrs[i].Key == key {
		n.Attrs[i].Val = val
		return n
	}
	if n.Attrs == nil {
		n.Attrs = make([]Attr, 0, 4)
	}
	n.Attrs = append(n.Attrs, Attr{})
	copy(n.Attrs[i+1:], n.Attrs[i:])
	n.Attrs[i] = Attr{Key: key, Val: val}
	return n
}

// Add appends children and returns the node.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Attr returns an attribute value ("" when absent).
func (n *Node) Attr(key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Child returns the first child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// attrEscaper escapes attribute values. strings.Replacer builds its lookup
// table on first use, so it is shared rather than made per value.
var attrEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
)

// indentSpaces is sliced for indentation; deeper nesting writes it repeatedly.
const indentSpaces = "                                                                "

// Render writes the node as indented XML with the dxl: namespace prefix.
func (n *Node) Render() string {
	var b strings.Builder
	b.Grow(len(xml.Header) + n.size(0))
	b.WriteString(xml.Header)
	n.render(&b, 0)
	return b.String()
}

// size is the rendered length of the subtree when nothing needs escaping.
func (n *Node) size(depth int) int {
	s := 2*depth + len("<dxl:") + len(n.Name) + len("/>\n")
	for _, a := range n.Attrs {
		s += len(` =""`) + len(a.Key) + len(a.Val)
	}
	if len(n.Children) == 0 && n.Text == "" {
		return s
	}
	s += len(n.Text) + 2*depth + len("\n</dxl:") + len(n.Name)
	for _, c := range n.Children {
		s += c.size(depth + 1)
	}
	return s
}

func writeIndent(b *strings.Builder, depth int) {
	for w := 2 * depth; w > 0; w -= len(indentSpaces) {
		b.WriteString(indentSpaces[:min(w, len(indentSpaces))])
	}
}

func (n *Node) render(b *strings.Builder, depth int) {
	writeIndent(b, depth)
	b.WriteString("<dxl:")
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteString(`="`)
		attrEscaper.WriteString(b, a.Val)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString("/>\n")
		return
	}
	b.WriteByte('>')
	if n.Text != "" {
		if err := xml.EscapeText(b, []byte(n.Text)); err != nil {
			b.WriteString(n.Text)
		}
	}
	if len(n.Children) > 0 {
		b.WriteByte('\n')
		for _, c := range n.Children {
			c.render(b, depth+1)
		}
		writeIndent(b, depth)
	}
	b.WriteString("</dxl:")
	b.WriteString(n.Name)
	b.WriteString(">\n")
}
