// Package xmldoc defines the XML document model used throughout the
// advisor: a parsed node tree with stable pre-order node IDs, a hand-rolled
// parser, and a serializer. It is the storage representation that the
// store, statistics collector, index builder, and XPath evaluator all
// operate on.
//
// The model deliberately covers the XML subset that matters for XML value
// indexing in the style of DB2 pureXML: elements, attributes, and text
// content. Processing instructions, comments, namespaces, and DTDs are
// parsed but discarded.
package xmldoc

import (
	"fmt"
	"strings"
)

// NodeKind identifies the kind of a node in the document tree.
type NodeKind uint8

const (
	// KindElement is an XML element node.
	KindElement NodeKind = iota
	// KindAttribute is an attribute attached to an element.
	KindAttribute
	// KindText is a text node (character data under an element).
	KindText
)

// String returns a human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// NodeID is the identifier of a node within a single document. IDs are
// assigned in document (pre-order) position, starting at 0 for the root
// element. Attribute nodes receive IDs too, immediately after their owner
// element. NodeIDs are dense: Document.Nodes[id] is the node with that ID.
type NodeID int32

// Node is a single node in a parsed XML document.
//
// For element nodes, Name is the tag and Value is empty. For attribute
// nodes, Name is the attribute name and Value its value. For text nodes,
// Name is empty and Value is the character data.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Name     string
	Value    string
	Parent   *Node
	Children []*Node // element and text children, in document order
	Attrs    []*Node // attribute nodes, in document order
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrNode returns the attribute node with the given name, or nil.
func (n *Node) AttrNode(name string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Text returns the concatenated text content of the node. For text and
// attribute nodes this is Value; for elements it is the concatenation of
// all descendant text nodes in document order.
func (n *Node) Text() string {
	switch n.Kind {
	case KindText, KindAttribute:
		return n.Value
	}
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case KindText:
			sb.WriteString(c.Value)
		case KindElement:
			c.appendText(sb)
		}
	}
}

// ChildElements returns the element children of n, in document order.
func (n *Node) ChildElements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == KindElement {
			out = append(out, c)
		}
	}
	return out
}

// ChildElement returns the first child element with the given name, or nil.
func (n *Node) ChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == KindElement && c.Name == name {
			return c
		}
	}
	return nil
}

// PathSteps returns the labels from the document root element down to n,
// inclusive. Attribute nodes contribute "@name"; text nodes contribute
// "text()".
func (n *Node) PathSteps() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		switch cur.Kind {
		case KindElement:
			rev = append(rev, cur.Name)
		case KindAttribute:
			rev = append(rev, "@"+cur.Name)
		case KindText:
			rev = append(rev, "text()")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RootPath returns the concrete rooted path of n, e.g. "/site/regions/item"
// or "/site/item/@id". This is the key used by the statistics tables.
func (n *Node) RootPath() string {
	steps := n.PathSteps()
	var sb strings.Builder
	for _, s := range steps {
		sb.WriteByte('/')
		sb.WriteString(s)
	}
	return sb.String()
}

// DocID identifies a document within a store collection.
type DocID int64

// Document is a parsed XML document. Nodes holds every node in pre-order;
// Nodes[i].ID == NodeID(i).
type Document struct {
	ID    DocID
	Name  string
	Root  *Node
	Nodes []*Node
}

// Node returns the node with the given ID, or nil if out of range.
func (d *Document) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(d.Nodes) {
		return nil
	}
	return d.Nodes[id]
}

// NodeCount returns the total number of nodes (elements, attributes, text).
func (d *Document) NodeCount() int { return len(d.Nodes) }

// ElementCount returns the number of element nodes.
func (d *Document) ElementCount() int {
	n := 0
	for _, nd := range d.Nodes {
		if nd.Kind == KindElement {
			n++
		}
	}
	return n
}

// Walk visits every node of the document in pre-order, calling fn. If fn
// returns false for an element, that element's attributes and subtree are
// skipped.
func (d *Document) Walk(fn func(*Node) bool) {
	if d.Root != nil {
		walk(d.Root, fn)
	}
}

func walk(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, a := range n.Attrs {
		fn(a)
	}
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// Renumber assigns dense pre-order NodeIDs and rebuilds d.Nodes. It must be
// called after constructing a tree by hand; Parse does it automatically.
func (d *Document) Renumber() {
	d.Nodes = d.Nodes[:0]
	if d.Root == nil {
		return
	}
	var assign func(n *Node)
	assign = func(n *Node) {
		n.ID = NodeID(len(d.Nodes))
		d.Nodes = append(d.Nodes, n)
		for _, a := range n.Attrs {
			a.Parent = n
			a.ID = NodeID(len(d.Nodes))
			d.Nodes = append(d.Nodes, a)
		}
		for _, c := range n.Children {
			c.Parent = n
			assign(c)
		}
	}
	d.Root.Parent = nil
	assign(d.Root)
}

// NewElement returns a new element node with the given tag name.
func NewElement(name string) *Node {
	return &Node{Kind: KindElement, Name: name}
}

// NewText returns a new text node with the given character data.
func NewText(value string) *Node {
	return &Node{Kind: KindText, Value: value}
}

// NewAttr returns a new attribute node.
func NewAttr(name, value string) *Node {
	return &Node{Kind: KindAttribute, Name: name, Value: value}
}

// AppendChild appends c (element or text) to n's children and sets parent.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr appends an attribute node to n and sets parent.
func (n *Node) SetAttr(name, value string) *Node {
	a := NewAttr(name, value)
	a.Parent = n
	n.Attrs = append(n.Attrs, a)
	return n
}

// Elem is a convenience constructor: an element with a single text child.
func Elem(name, text string) *Node {
	e := NewElement(name)
	if text != "" {
		e.AppendChild(NewText(text))
	}
	return e
}
