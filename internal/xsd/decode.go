package xsd

import (
	"encoding/xml"
	"fmt"
	"strings"
	"unicode/utf8"
)

// maxDepth bounds element nesting and with it the decoder's recursion.
// Real schemas nest less than ten deep (PDB: 7). The encoding/xml
// reference decode stops near 5,000 levels of nested attribute groups,
// and never for nested model groups.
const maxDepth = 4096

var errTooDeep = fmt.Errorf("elements nest deeper than %d", maxDepth)

// decoder reads an XSD document in one pass over its text and fills the
// raw declaration structs. It accepts what encoding/xml's strict Decoder
// accepts, read as xml.Unmarshal reads it into the structs' tags: up to
// the root's end tag, with children and attributes matched by local name
// in any namespace.
type decoder struct {
	s     string
	pos   int
	open  []string  // raw names of the open elements, innermost last
	empty bool      // the last start tag closed itself; its end comes next
	local string    // local name of the last start tag
	attrs []rawAttr // attributes of the last start tag
	buf   []byte    // text's buffer for values with references or CRs
}

type rawAttr struct{ local, value string }

// decode decodes the document s into its raw declarations.
func decode(s string) (*xsdSchema, error) {
	d := &decoder{s: s}
	// Text, comments, processing instructions and directives may precede
	// the root; a stray end tag fails next.
	if _, err := d.next(); err != nil {
		return nil, fmt.Errorf("xsd: parse: %w", err)
	}
	if d.local != "schema" {
		return nil, fmt.Errorf("xsd: root element is %q, want schema", d.local)
	}
	doc := new(xsdSchema)
	if err := d.fill(doc); err != nil {
		return nil, fmt.Errorf("xsd: parse: %w", err)
	}
	return doc, nil
}

// A filler is one raw declaration being filled: attr returns the field an
// attribute sets, child the declaration a child element fills; nil skips
// the attribute or the element.
type filler interface {
	attr(local string) *string
	child(local string) filler
}

// fill fills f from the start tag just read and from its content, through
// the matching end tag. A nil f skips the element, still checking it.
// Values are copied so that the trees do not pin the document.
func (d *decoder) fill(f filler) error {
	if f != nil {
		for _, a := range d.attrs {
			if p := f.attr(a.local); p != nil {
				*p = strings.Clone(a.value)
			}
		}
	}
	for {
		end, err := d.next()
		if err != nil || end {
			return err
		}
		var c filler
		if f != nil {
			c = f.child(d.local)
		}
		if err := d.fill(c); err != nil {
			return err
		}
	}
}

// add appends a zero declaration to *list and returns it for filling.
func add[T any, P interface {
	*T
	filler
}](list *[]T) filler {
	var zero T
	*list = append(*list, zero)
	return P(&(*list)[len(*list)-1])
}

// one returns *p for filling, allocating it first: a second child of the
// same name fills the same declaration again, as Unmarshal does.
func one[T any, P interface {
	*T
	filler
}](p **T) filler {
	if *p == nil {
		*p = new(T)
	}
	return P(*p)
}

// next moves to the next start or end tag and reports whether it is an
// end tag; a start tag sets d.local and d.attrs. On the way it checks and
// skips character data, comments, CDATA sections, processing instructions
// and directives.
func (d *decoder) next() (end bool, err error) {
	if d.empty {
		d.empty = false
		d.open = d.open[:len(d.open)-1]
		return true, nil
	}
	for {
		i := strings.IndexByte(d.s[d.pos:], '<')
		if i < 0 {
			d.pos = len(d.s)
			return false, d.errorf("unexpected EOF")
		}
		if i > 0 {
			raw := d.s[d.pos : d.pos+i]
			if strings.Contains(raw, "]]>") {
				return false, d.errorf("unescaped ]]> not in CDATA section")
			}
			if _, err := d.text(raw, true); err != nil {
				return false, err
			}
		}
		d.pos += i + 1
		if d.pos == len(d.s) {
			return false, d.errorf("unexpected EOF")
		}
		switch d.s[d.pos] {
		case '/':
			d.pos++
			return true, d.endTag()
		case '?':
			d.pos++
			err = d.procInst()
		case '!':
			d.pos++
			err = d.markup()
		default:
			return false, d.startTag()
		}
		if err != nil {
			return false, err
		}
	}
}

// startTag reads a start tag after its '<'. Attributes need no space
// between them, their values must be quoted, and a repeated one is kept:
// the last wins when a field is set.
func (d *decoder) startTag() error {
	name, local, err := d.nsname()
	if err != nil {
		return err
	}
	if len(d.open) == maxDepth {
		return d.fail(errTooDeep)
	}
	d.open = append(d.open, name)
	d.local = local
	d.attrs = d.attrs[:0]
	for {
		d.space()
		if d.pos == len(d.s) {
			return d.errorf("unexpected EOF")
		}
		switch d.s[d.pos] {
		case '>':
			d.pos++
			return nil
		case '/':
			if !strings.HasPrefix(d.s[d.pos:], "/>") {
				return d.errorf("expected /> in element")
			}
			d.pos += 2
			d.empty = true
			return nil
		}
		_, local, err := d.nsname()
		if err != nil {
			return err
		}
		d.space()
		if !strings.HasPrefix(d.s[d.pos:], "=") {
			return d.errorf("attribute name without = in element")
		}
		d.pos++
		d.space()
		value, err := d.attrValue()
		if err != nil {
			return err
		}
		d.attrs = append(d.attrs, rawAttr{local, value})
	}
}

func (d *decoder) attrValue() (string, error) {
	if d.pos == len(d.s) || d.s[d.pos] != '"' && d.s[d.pos] != '\'' {
		return "", d.errorf("unquoted or missing attribute value in element")
	}
	n := strings.IndexByte(d.s[d.pos+1:], d.s[d.pos])
	if n < 0 {
		d.pos = len(d.s)
		return "", d.errorf("unexpected EOF")
	}
	raw := d.s[d.pos+1 : d.pos+1+n]
	if strings.IndexByte(raw, '<') >= 0 {
		return "", d.errorf("unescaped < inside quoted string")
	}
	d.pos += n + 2
	return d.text(raw, true)
}

// endTag reads an end tag after its "</". It must close the innermost
// open element under the same raw name, prefix included.
func (d *decoder) endTag() error {
	name, _, err := d.nsname()
	if err != nil {
		return err
	}
	d.space()
	if !strings.HasPrefix(d.s[d.pos:], ">") {
		return d.errorf("invalid characters between </%s and >", name)
	}
	d.pos++
	top := len(d.open) - 1
	if top < 0 {
		return d.errorf("unexpected end element </%s>", name)
	}
	if d.open[top] != name {
		return d.errorf("element <%s> closed by </%s>", d.open[top], name)
	}
	d.open = d.open[:top]
	return nil
}

// procInst skips a processing instruction after its "<?". An XML
// declaration, wherever it stands, must declare version 1.0 and UTF-8 if
// it declares either.
func (d *decoder) procInst() error {
	target, err := d.name()
	if err != nil {
		return err
	}
	d.space()
	n := strings.Index(d.s[d.pos:], "?>")
	if n < 0 {
		d.pos = len(d.s)
		return d.errorf("unexpected EOF")
	}
	content := d.s[d.pos : d.pos+n]
	d.pos += n + 2
	if target == "xml" {
		if v := procInstParam("version", content); v != "" && v != "1.0" {
			return d.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return d.errorf("unsupported encoding %q", enc)
		}
	}
	return nil
}

// procInstParam returns the value of param="…" or param='…' in an XML
// declaration's content, or "", reading it as encoding/xml does: the first
// param= followed by a quote opens the value.
func procInstParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		q := s[i+k+len(param)]
		i += k + len(param) + 1
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(s[i:], q); j >= 0 {
				return s[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// markup skips a comment, a CDATA section or a directive after its "<!".
func (d *decoder) markup() error {
	s := d.s[d.pos:]
	switch {
	case strings.HasPrefix(s, "--"):
		// A comment may not contain "--".
		k := strings.Index(s[2:], "--")
		if k < 0 || 2+k+2 == len(s) {
			d.pos = len(d.s)
			return d.errorf("unexpected EOF")
		}
		d.pos += 2 + k
		if s[2+k+2] != '>' {
			return d.errorf(`invalid sequence "--" not allowed in comments`)
		}
		d.pos += 3
	case strings.HasPrefix(s, "[CDATA["):
		k := strings.Index(s[7:], "]]>")
		if k < 0 {
			d.pos = len(d.s)
			return d.errorf("unexpected EOF in CDATA section")
		}
		if _, err := d.text(s[7:7+k], false); err != nil {
			return err
		}
		d.pos += 7 + k + 3
	case strings.HasPrefix(s, "-"), strings.HasPrefix(s, "["):
		return d.errorf("invalid <!%c sequence", s[0])
	default:
		// A directive such as <!DOCTYPE …>: its first byte is taken as
		// is, then quoted strings and <!-- --> comments are skipped and
		// any other '<' opens a level that a '>' closes.
		var quote byte
		depth := 0
		for i := 1; i < len(s); {
			b := s[i]
			i++
			switch {
			case b == quote:
				quote = 0
			case quote != 0:
			case b == '"' || b == '\'':
				quote = b
			case b == '>':
				if depth == 0 {
					d.pos += i
					return nil
				}
				depth--
			case b == '<':
				if strings.HasPrefix(s[i:], "!--") {
					k := strings.Index(s[i+3:], "-->")
					if k < 0 {
						i = len(s)
						break
					}
					i += 3 + k + 3
					break
				}
				// A partial "<!--" is text: the byte that breaks it
				// is read again as the next byte.
				if strings.HasPrefix(s[i:], "!-") {
					i += 2
				} else if strings.HasPrefix(s[i:], "!") {
					i++
				}
				depth++
			}
		}
		d.pos = len(d.s)
		return d.errorf("unexpected EOF")
	}
	return nil
}

// text checks raw character data — an attribute value, the text between
// tags, or a CDATA section's content when refs is false — and returns its
// value: the five predefined entities and character references expanded
// (when refs), CR and CRLF turned into LF. Every character must be an XML
// Char in valid UTF-8. The value is raw itself unless a reference or a CR
// occurs; from the first one on, it is built in d.buf.
func (d *decoder) text(raw string, refs bool) (string, error) {
	var buf []byte
	slow := false
	for i := 0; i < len(raw); {
		c := raw[i]
		if c == '\r' || c == '&' && refs {
			if !slow {
				buf, slow = append(d.buf[:0], raw[:i]...), true
			}
			if c == '\r' {
				buf = append(buf, '\n')
				i++
				if i < len(raw) && raw[i] == '\n' {
					i++
				}
				continue
			}
			r, n := reference(raw[i:])
			if n == 0 || !isChar(r) {
				return "", d.errorf("invalid character entity %s", raw[i:i+max(n, 1)])
			}
			buf = utf8.AppendRune(buf, r)
			i += n
			continue
		}
		n := 1
		if c >= utf8.RuneSelf {
			var r rune
			r, n = utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return "", d.errorf("invalid UTF-8")
			}
			if !isChar(r) {
				return "", d.errorf("illegal character code %U", r)
			}
		} else if c < 0x20 && c != '\t' && c != '\n' {
			return "", d.errorf("illegal character code %U", rune(c))
		}
		if slow {
			buf = append(buf, raw[i:i+n]...)
		}
		i += n
	}
	if !slow {
		return raw, nil
	}
	d.buf = buf
	return string(buf), nil
}

var entities = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference decodes the reference at the start of s (s[0] == '&') and
// returns its character and length, or length 0 when it is not one of
// the five predefined entities or a decimal or lowercase-x hex character
// reference of at most U+10FFFF. A surrogate decodes to U+FFFD, as Go's
// string(rune) conversion makes it.
func reference(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		for _, e := range entities {
			if strings.HasPrefix(s[1:], e.name) {
				return e.r, 1 + len(e.name)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if strings.HasPrefix(s[i:], "x") {
		i, base = 3, 16
	}
	start := i
	var r rune
	for ; i < len(s); i++ {
		c, v := s[i], rune(-1)
		switch {
		case '0' <= c && c <= '9':
			v = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			v = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			v = rune(c-'A') + 10
		}
		if v < 0 {
			break
		}
		if r <= utf8.MaxRune {
			r = r*base + v
		}
	}
	if i == start || i == len(s) || s[i] != ';' || r > utf8.MaxRune {
		return 0, 0
	}
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError
	}
	return r, i + 1
}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// nsname reads an element or attribute name, which may hold at most one
// ':', and returns it with its local part. An empty prefix or local part
// leaves the whole name local.
func (d *decoder) nsname() (name, local string, err error) {
	if name, err = d.name(); err != nil {
		return "", "", err
	}
	prefix, local, ok := strings.Cut(name, ":")
	if strings.Contains(local, ":") {
		return "", "", d.errorf("invalid XML name %s", name)
	}
	if !ok || prefix == "" || local == "" {
		local = name
	}
	return name, local, nil
}

// name reads an XML name: a run of ASCII name bytes ([A-Za-z0-9_:.-]) and
// non-ASCII bytes that does not start with a digit, '.' or '-'. A name with
// a non-ASCII byte is checked by encoding/xml itself against the XML name
// productions.
func (d *decoder) name() (string, error) {
	i, ascii := d.pos, true
	for ; i < len(d.s); i++ {
		c := d.s[i]
		if c >= utf8.RuneSelf {
			ascii = false
		} else if !isNameByte(c) {
			break
		}
	}
	name := d.s[d.pos:i]
	if name == "" {
		return "", d.errorf("expected a name")
	}
	if c := name[0]; ascii && ('0' <= c && c <= '9' || c == '.' || c == '-') || !ascii && !xmlName(name) {
		return "", d.errorf("invalid XML name %s", name)
	}
	d.pos = i
	return name, nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
}

// xmlName asks encoding/xml whether a name with non-ASCII bytes is an XML
// name. ':' is as valid as '_' anywhere in a name; it is replaced so that
// the check sees a name without a prefix.
func xmlName(name string) bool {
	_, err := xml.NewDecoder(strings.NewReader("<" + strings.ReplaceAll(name, ":", "_") + "/>")).RawToken()
	return err == nil
}

func (d *decoder) space() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) errorf(format string, args ...any) error {
	return d.fail(fmt.Errorf(format, args...))
}

// fail places err at the decoder's line.
func (d *decoder) fail(err error) error {
	return fmt.Errorf("line %d: %w", 1+strings.Count(d.s[:d.pos], "\n"), err)
}

// The declarations' fields by attribute and child element name, as their
// struct tags give them.

func (*xsdSchema) attr(string) *string { return nil }

func (s *xsdSchema) child(name string) filler {
	switch name {
	case "element":
		return add(&s.Elements)
	case "complexType":
		return add(&s.ComplexTypes)
	case "simpleType":
		return add(&s.SimpleTypes)
	case "attribute":
		return add(&s.Attributes)
	case "group":
		return add(&s.Groups)
	case "attributeGroup":
		return add(&s.AttributeGroups)
	}
	return nil
}

func (g *xsdNamedGroup) attr(name string) *string {
	if name == "name" {
		return &g.Name
	}
	return nil
}

func (g *xsdNamedGroup) child(name string) filler {
	return modelGroup(name, &g.Sequence, &g.Choice, &g.All)
}

// modelGroup fills the sequence, choice or all of a declaration.
func modelGroup(name string, seq, choice, all **xsdGroup) filler {
	switch name {
	case "sequence":
		return one(seq)
	case "choice":
		return one(choice)
	case "all":
		return one(all)
	}
	return nil
}

func (g *xsdAttributeGroup) attr(name string) *string {
	switch name {
	case "name":
		return &g.Name
	case "ref":
		return &g.Ref
	}
	return nil
}

func (g *xsdAttributeGroup) child(name string) filler {
	switch name {
	case "attribute":
		return add(&g.Attributes)
	case "attributeGroup":
		return add(&g.Nested)
	}
	return nil
}

func (e *xsdElement) attr(name string) *string {
	switch name {
	case "name":
		return &e.Name
	case "type":
		return &e.Type
	case "ref":
		return &e.Ref
	case "minOccurs":
		return &e.MinOccurs
	case "maxOccurs":
		return &e.MaxOccurs
	case "nillable":
		return &e.Nillable
	case "fixed":
		return &e.Fixed
	case "default":
		return &e.Default
	}
	return nil
}

func (e *xsdElement) child(name string) filler {
	switch name {
	case "complexType":
		return one(&e.ComplexType)
	case "simpleType":
		return one(&e.SimpleType)
	}
	return nil
}

func (ct *xsdComplexType) attr(name string) *string {
	if name == "name" {
		return &ct.Name
	}
	return nil
}

func (ct *xsdComplexType) child(name string) filler {
	switch name {
	case "group":
		return one(&ct.GroupRef)
	case "attribute":
		return add(&ct.Attributes)
	case "attributeGroup":
		return add(&ct.AttributeGroups)
	case "simpleContent":
		return one(&ct.SimpleContent)
	case "complexContent":
		return one(&ct.ComplexContent)
	}
	return modelGroup(name, &ct.Sequence, &ct.Choice, &ct.All)
}

func (r *xsdGroupRef) attr(name string) *string {
	if name == "ref" {
		return &r.Ref
	}
	return nil
}

func (*xsdGroupRef) child(string) filler { return nil }

func (*xsdGroup) attr(string) *string { return nil }

// child appends an item in document order; a group's own attributes and
// its other children are skipped.
func (g *xsdGroup) child(name string) filler {
	switch name {
	case "element":
		e := new(xsdElement)
		g.Items = append(g.Items, groupItem{Element: e})
		return e
	case "sequence", "choice", "all":
		sub := new(xsdGroup)
		g.Items = append(g.Items, groupItem{Group: sub})
		return sub
	case "group":
		g.Items = append(g.Items, groupItem{})
		return &g.Items[len(g.Items)-1]
	}
	return nil
}

// A group reference item takes its ref attribute.
func (it *groupItem) attr(name string) *string {
	if name == "ref" {
		return &it.GroupRef
	}
	return nil
}

func (*groupItem) child(string) filler { return nil }

func (*xsdContent) attr(string) *string { return nil }

func (c *xsdContent) child(name string) filler {
	switch name {
	case "extension":
		return one(&c.Extension)
	case "restriction":
		return one(&c.Restriction)
	}
	return nil
}

func (dv *xsdDerivation) attr(name string) *string {
	if name == "base" {
		return &dv.Base
	}
	return nil
}

func (dv *xsdDerivation) child(name string) filler {
	if name == "attribute" {
		return add(&dv.Attributes)
	}
	return modelGroup(name, &dv.Sequence, &dv.Choice, &dv.All)
}

func (st *xsdSimpleType) attr(name string) *string {
	if name == "name" {
		return &st.Name
	}
	return nil
}

func (st *xsdSimpleType) child(name string) filler {
	switch name {
	case "restriction":
		return one(&st.Restriction)
	case "list":
		return one(&st.List)
	case "union":
		return one(&st.Union)
	}
	return nil
}

func (r *xsdRestriction) attr(name string) *string {
	if name == "base" {
		return &r.Base
	}
	return nil
}

func (*xsdRestriction) child(string) filler { return nil }

func (l *xsdList) attr(name string) *string {
	if name == "itemType" {
		return &l.ItemType
	}
	return nil
}

func (*xsdList) child(string) filler { return nil }

func (u *xsdUnion) attr(name string) *string {
	if name == "memberTypes" {
		return &u.MemberTypes
	}
	return nil
}

func (*xsdUnion) child(string) filler { return nil }

func (a *xsdAttribute) attr(name string) *string {
	switch name {
	case "name":
		return &a.Name
	case "type":
		return &a.Type
	case "ref":
		return &a.Ref
	case "use":
		return &a.Use
	case "fixed":
		return &a.Fixed
	case "default":
		return &a.Default
	}
	return nil
}

func (*xsdAttribute) child(string) filler { return nil }
