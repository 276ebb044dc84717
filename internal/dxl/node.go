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
// through a shared attribute escaper. ParseXML reads raw tokens (no
// namespace translation; consumers strip the dxl: prefix anyway) and so
// makes the well-formedness checks that encoding/xml's Token would have
// made itself: close tags match their open tags, no element is left open at
// EOF, and nothing but whitespace, comments and processing instructions
// appears outside the single root element.
package dxl

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"orca/internal/fault"
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

// Setf sets a formatted attribute.
func (n *Node) Setf(key, format string, args ...any) *Node {
	return n.Set(key, fmt.Sprintf(format, args...))
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

// ParseXML reads a DXL document into a Node tree. The document must hold
// exactly one root element; see the package comment for the checks made.
func ParseXML(doc string) (*Node, error) {
	if err := fault.Inject(fault.PointDXLParse); err != nil {
		return nil, err
	}
	dec := xml.NewDecoder(strings.NewReader(doc))
	var stack []*Node
	var names []xml.Name // raw names of the open elements, parallel to stack
	var root *Node
	for {
		tok, err := dec.RawToken()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dxl: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if root != nil && len(stack) == 0 {
				return nil, fmt.Errorf("dxl: second root element <%s> after <%s>", t.Name.Local, root.Name)
			}
			n := &Node{Name: stripNS(t.Name.Local)}
			for _, a := range t.Attr {
				if a.Name.Local == "dxl" || a.Name.Space == "xmlns" {
					continue
				}
				if n.Attrs == nil {
					n.Attrs = make([]Attr, 0, len(t.Attr))
				}
				n.Set(a.Name.Local, a.Value)
			}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else {
				root = n
			}
			stack = append(stack, n)
			names = append(names, t.Name)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("dxl: unexpected close tag </%s>", t.Name.Local)
			}
			if open := names[len(names)-1]; open != t.Name {
				return nil, fmt.Errorf("dxl: element <%s> closed by </%s>", rawName(open), rawName(t.Name))
			}
			stack, names = stack[:len(stack)-1], names[:len(names)-1]
		case xml.CharData:
			s := bytes.TrimSpace(t)
			if len(s) == 0 {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("dxl: text %q outside the root element", s)
			}
			stack[len(stack)-1].Text += string(s)
		case xml.Directive:
			if root != nil {
				return nil, fmt.Errorf("dxl: directive after the root element")
			}
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("dxl: unexpected EOF: element <%s> not closed", rawName(names[len(names)-1]))
	}
	if root == nil {
		return nil, fmt.Errorf("dxl: empty document")
	}
	return root, nil
}

// rawName renders a raw token name with its prefix for error messages.
func rawName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

func stripNS(name string) string {
	if i := strings.Index(name, ":"); i >= 0 {
		return name[i+1:]
	}
	return name
}
