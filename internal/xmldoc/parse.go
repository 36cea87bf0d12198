package xmldoc

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml parse error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses an XML document from src. The parser handles elements,
// attributes (single or double quoted), character data, entity references
// (the five predefined entities plus numeric character references), CDATA
// sections, comments, processing instructions, and a leading XML
// declaration / DOCTYPE (all but elements/attributes/text are discarded).
// Namespaces are not interpreted; prefixed names are kept verbatim.
//
// Whitespace-only text between elements is dropped, matching how data-
// centric XML stores (and the DB2 XML index machinery the paper relies on)
// treat ignorable whitespace.
func Parse(src []byte) (*Document, error) {
	p := &parser{src: src}
	root, err := p.parseDocument()
	if err != nil {
		return nil, err
	}
	doc := &Document{Root: root}
	doc.Renumber()
	return doc, nil
}

// ParseString is Parse on a string.
func ParseString(src string) (*Document, error) {
	return Parse([]byte(src))
}

// MustParse parses src and panics on error. For tests and generators whose
// input is known-good.
func MustParse(src string) *Document {
	d, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return d
}

type parser struct {
	src []byte
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// at reports whether the unread input starts with prefix.
func (p *parser) at(prefix string) bool {
	return len(p.src)-p.pos >= len(prefix) && string(p.src[p.pos:p.pos+len(prefix)]) == prefix
}

// skipUntil advances past the first occurrence of marker, returning an
// error if it is never found.
func (p *parser) skipUntil(marker string) error {
	idx := bytes.Index(p.src[p.pos:], []byte(marker))
	if idx < 0 {
		return p.errf("unterminated construct: missing %q", marker)
	}
	p.pos += idx + len(marker)
	return nil
}

func (p *parser) parseDocument() (*Node, error) {
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("no root element")
		}
		if p.peek() != '<' {
			return nil, p.errf("unexpected character %q before root element", p.peek())
		}
		if p.pos+1 < len(p.src) {
			switch p.src[p.pos+1] {
			case '?':
				if err := p.skipUntil("?>"); err != nil {
					return nil, err
				}
				continue
			case '!':
				if p.at("<!--") {
					if err := p.skipUntil("-->"); err != nil {
						return nil, err
					}
					continue
				}
				// DOCTYPE: skip to matching '>'. Internal subsets with
				// nested brackets are handled by depth counting.
				if err := p.skipDoctype(); err != nil {
					return nil, err
				}
				continue
			}
		}
		break
	}
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	for !p.eof() {
		// Trailing comments / PIs are permitted.
		if p.at("<!--") {
			if err := p.skipUntil("-->"); err != nil {
				return nil, err
			}
		} else if p.at("<?") {
			if err := p.skipUntil("?>"); err != nil {
				return nil, err
			}
		} else {
			return nil, p.errf("content after root element")
		}
		p.skipSpace()
	}
	return root, nil
}

func (p *parser) skipDoctype() error {
	depth := 0
	for ; p.pos < len(p.src); p.pos++ {
		switch p.src[p.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos++
				return nil
			}
		}
	}
	return p.errf("unterminated DOCTYPE")
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	p.pos++
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return string(p.src[start:p.pos]), nil
}

// parseElement parses one element starting at '<'.
func (p *parser) parseElement() (*Node, error) {
	if p.peek() != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	el := NewElement(name)
	// Attributes.
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		c := p.peek()
		if c == '/' {
			p.pos++
			if p.peek() != '>' {
				return nil, p.errf("expected '>' after '/' in tag <%s", name)
			}
			p.pos++
			return el, nil // self-closing
		}
		if c == '>' {
			p.pos++
			break
		}
		aname, err := p.parseName()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != '=' {
			return nil, p.errf("expected '=' after attribute %q", aname)
		}
		p.pos++
		p.skipSpace()
		q := p.peek()
		if q != '"' && q != '\'' {
			return nil, p.errf("expected quoted value for attribute %q", aname)
		}
		p.pos++
		vstart := p.pos
		for !p.eof() && p.src[p.pos] != q {
			p.pos++
		}
		if p.eof() {
			return nil, p.errf("unterminated attribute value for %q", aname)
		}
		val, err := decodeEntities(string(p.src[vstart:p.pos]), p.pos)
		if err != nil {
			return nil, err
		}
		p.pos++ // closing quote
		el.SetAttr(aname, val)
	}
	// Content.
	for {
		if p.eof() {
			return nil, p.errf("unterminated element <%s>", name)
		}
		if p.peek() == '<' {
			switch {
			case p.at("</"):
				p.pos += 2
				ename, err := p.parseName()
				if err != nil {
					return nil, err
				}
				if ename != name {
					return nil, p.errf("mismatched end tag </%s>, expected </%s>", ename, name)
				}
				p.skipSpace()
				if p.peek() != '>' {
					return nil, p.errf("expected '>' in end tag </%s", ename)
				}
				p.pos++
				return el, nil
			case p.at("<!--"):
				if err := p.skipUntil("-->"); err != nil {
					return nil, err
				}
			case p.at("<![CDATA["):
				p.pos += len("<![CDATA[")
				idx := bytes.Index(p.src[p.pos:], []byte("]]>"))
				if idx < 0 {
					return nil, p.errf("unterminated CDATA section")
				}
				text := string(p.src[p.pos : p.pos+idx])
				p.pos += idx + len("]]>")
				if text != "" {
					el.AppendChild(NewText(text))
				}
			case p.at("<?"):
				if err := p.skipUntil("?>"); err != nil {
					return nil, err
				}
			default:
				child, err := p.parseElement()
				if err != nil {
					return nil, err
				}
				el.AppendChild(child)
			}
			continue
		}
		// Character data up to the next '<'.
		start := p.pos
		for !p.eof() && p.src[p.pos] != '<' {
			p.pos++
		}
		raw := string(p.src[start:p.pos])
		text, err := decodeEntities(raw, start)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(text) != "" {
			el.AppendChild(NewText(text))
		}
	}
}

// decodeEntities expands the predefined XML entities and numeric character
// references in s. offset is used only for error positions.
func decodeEntities(s string, offset int) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", &ParseError{Offset: offset + i, Msg: "unterminated entity reference"}
		}
		ent := s[i+1 : i+semi]
		switch ent {
		case "amp":
			sb.WriteByte('&')
		case "lt":
			sb.WriteByte('<')
		case "gt":
			sb.WriteByte('>')
		case "quot":
			sb.WriteByte('"')
		case "apos":
			sb.WriteByte('\'')
		default:
			if strings.HasPrefix(ent, "#") {
				numStr := ent[1:]
				base := 10
				if strings.HasPrefix(numStr, "x") || strings.HasPrefix(numStr, "X") {
					numStr = numStr[1:]
					base = 16
				}
				n, err := strconv.ParseInt(numStr, base, 32)
				if err != nil || n < 0 {
					return "", &ParseError{Offset: offset + i, Msg: fmt.Sprintf("bad character reference &%s;", ent)}
				}
				sb.WriteRune(rune(n))
			} else {
				return "", &ParseError{Offset: offset + i, Msg: fmt.Sprintf("unknown entity &%s;", ent)}
			}
		}
		i += semi + 1
	}
	return sb.String(), nil
}

// The escapers are built once: a Replacer is safe for concurrent use.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data for serialization.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes an attribute value for serialization (double-quoted).
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// Serialize renders the document as XML text without extra whitespace.
func (d *Document) Serialize() string {
	var sb strings.Builder
	if d.Root != nil {
		serializeNode(&sb, d.Root)
	}
	return sb.String()
}

func serializeNode(sb *strings.Builder, n *Node) {
	switch n.Kind {
	case KindText:
		sb.WriteString(EscapeText(n.Value))
	case KindElement:
		sb.WriteByte('<')
		sb.WriteString(n.Name)
		for _, a := range n.Attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Name)
			sb.WriteString(`="`)
			sb.WriteString(EscapeAttr(a.Value))
			sb.WriteByte('"')
		}
		if len(n.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, c := range n.Children {
			serializeNode(sb, c)
		}
		sb.WriteString("</")
		sb.WriteString(n.Name)
		sb.WriteByte('>')
	}
}
