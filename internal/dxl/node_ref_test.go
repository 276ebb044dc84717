package dxl

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// parseXMLRef is ParseXML as it was when it read encoding/xml's RawToken
// stream. It is the oracle of FuzzParseXML and TestParseXML: for every
// input, ParseXML must return a tree equal to this one, or both must reject
// the document.
func parseXMLRef(doc string) (*Node, error) {
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
