// Package ddl parses relational CREATE TABLE definitions into the schema
// tree model, following the Valentine/Cupid exemplars that feed database
// tables into a tree matcher by modeling database → table → column as
// tree levels. With relational schemas in the same tree model, every
// matcher, the service and the registry work on DDL↔XSD and
// DDL↔JSON-Schema pairs unchanged. The supported subset:
//
//	CREATE TABLE [IF NOT EXISTS] name (
//	    column TYPE [NOT NULL | NULL] [PRIMARY KEY] [UNIQUE]
//	           [DEFAULT value] [REFERENCES other (col)] [CHECK (...)],
//	    PRIMARY KEY (a, b),
//	    FOREIGN KEY (a) REFERENCES other (b),
//	    CONSTRAINT name PRIMARY KEY | FOREIGN KEY | UNIQUE | CHECK ...,
//	    ...
//	) [table options] ;
//
// Several statements build one database tree: the root carries the
// database label, tables are its children (repeated — a database holds
// any number of rows per table), columns are leaves. SQL types map onto
// the XSD datatype table so the properties axis compares columns and
// elements through one compatibility relation; PRIMARY KEY and FOREIGN
// KEY membership is recorded on the column properties (Use "key" /
// "keyref", the XSD key/keyref idiom). Statements other than CREATE
// TABLE are not supported and error. Line (--) and block comments are
// skipped; identifiers may be bare, "quoted", `backticked` or
// [bracketed].
package ddl

import (
	"fmt"
	"strings"

	"qmatch/internal/xmltree"
)

// ParseString parses DDL statements and returns the database tree labeled
// name (falling back to "db").
func ParseString(src, name string) (*xmltree.Node, error) {
	if name == "" {
		name = "db"
	}
	lx := &lexer{src: src}
	tokens, err := lx.all()
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	root := xmltree.New(name, xmltree.Properties{MinOccurs: 1, MaxOccurs: 1, Order: 1})
	seen := map[string]bool{}
	for !p.done() {
		table, err := p.createTable()
		if err != nil {
			return nil, err
		}
		if seen[table.Label] {
			return nil, fmt.Errorf("ddl: table %q declared twice", table.Label)
		}
		seen[table.Label] = true
		root.Add(table)
	}
	if len(root.Children) == 0 {
		return nil, fmt.Errorf("ddl: no CREATE TABLE statements")
	}
	return root, nil
}

// token is one lexical unit: an identifier/keyword, a number, a quoted
// string, or a single punctuation/operator character.
type token struct {
	kind byte // 'i' identifier, 'n' number, 's' string, 'p' punct
	text string
}

type lexer struct {
	src string
	pos int
}

// all tokenizes the whole input, skipping whitespace and comments.
func (lx *lexer) all() ([]token, error) {
	var out []token
	for {
		lx.skipSpaceAndComments()
		if lx.pos >= len(lx.src) {
			return out, nil
		}
		c := lx.src[lx.pos]
		switch {
		case isIdentStart(c):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
				lx.pos++
			}
			out = append(out, token{kind: 'i', text: lx.src[start:lx.pos]})
		case c >= '0' && c <= '9':
			start := lx.pos
			for lx.pos < len(lx.src) && (lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' || lx.src[lx.pos] == '.') {
				lx.pos++
			}
			out = append(out, token{kind: 'n', text: lx.src[start:lx.pos]})
		case c == '\'':
			text, err := lx.quoted('\'')
			if err != nil {
				return nil, err
			}
			out = append(out, token{kind: 's', text: text})
		case c == '"':
			text, err := lx.quoted('"')
			if err != nil {
				return nil, err
			}
			out = append(out, token{kind: 'i', text: text})
		case c == '`':
			text, err := lx.quoted('`')
			if err != nil {
				return nil, err
			}
			out = append(out, token{kind: 'i', text: text})
		case c == '[':
			end := strings.IndexByte(lx.src[lx.pos:], ']')
			if end < 0 {
				return nil, fmt.Errorf("ddl: unterminated [identifier] at offset %d", lx.pos)
			}
			out = append(out, token{kind: 'i', text: lx.src[lx.pos+1 : lx.pos+end]})
			lx.pos += end + 1
		default:
			out = append(out, token{kind: 'p', text: string(c)})
			lx.pos++
		}
	}
}

// quoted consumes a q-delimited literal with doubled-quote escaping.
func (lx *lexer) quoted(q byte) (string, error) {
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == q {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == q {
				b.WriteByte(q)
				lx.pos += 2
				continue
			}
			lx.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		lx.pos++
	}
	return "", fmt.Errorf("ddl: unterminated %q literal", q)
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case strings.HasPrefix(lx.src[lx.pos:], "--"):
			if nl := strings.IndexByte(lx.src[lx.pos:], '\n'); nl >= 0 {
				lx.pos += nl + 1
			} else {
				lx.pos = len(lx.src)
			}
		case strings.HasPrefix(lx.src[lx.pos:], "/*"):
			if end := strings.Index(lx.src[lx.pos:], "*/"); end >= 0 {
				lx.pos += end + 2
			} else {
				lx.pos = len(lx.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '$'
}

// parser consumes the token stream statement by statement.
type parser struct {
	tokens []token
	pos    int
}

func (p *parser) done() bool {
	// Trailing semicolons between/after statements are insignificant.
	for p.pos < len(p.tokens) && p.tokens[p.pos].kind == 'p' && p.tokens[p.pos].text == ";" {
		p.pos++
	}
	return p.pos >= len(p.tokens)
}

func (p *parser) peek() token {
	if p.pos < len(p.tokens) {
		return p.tokens[p.pos]
	}
	return token{}
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

// keyword consumes the next token if it is the given keyword
// (case-insensitive) and reports whether it did.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == 'i' && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("ddl: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectPunct(ch string) error {
	t := p.peek()
	if t.kind != 'p' || t.text != ch {
		return fmt.Errorf("ddl: expected %q, got %q", ch, t.text)
	}
	p.pos++
	return nil
}

// identifier consumes a possibly qualified name (a.b.c) and returns its
// last segment — the label the tree model uses.
func (p *parser) identifier(what string) (string, error) {
	t := p.peek()
	if t.kind != 'i' {
		return "", fmt.Errorf("ddl: expected %s, got %q", what, t.text)
	}
	p.pos++
	name := t.text
	for p.peek().kind == 'p' && p.peek().text == "." {
		p.pos++
		seg := p.peek()
		if seg.kind != 'i' {
			return "", fmt.Errorf("ddl: malformed qualified %s", what)
		}
		p.pos++
		name = seg.text
	}
	if name == "" {
		return "", fmt.Errorf("ddl: empty %s", what)
	}
	return name, nil
}

// createTable parses one CREATE TABLE statement into a table node.
func (p *parser) createTable() (*xmltree.Node, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, fmt.Errorf("%w (only CREATE TABLE statements are supported)", err)
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, fmt.Errorf("%w (only CREATE TABLE statements are supported)", err)
	}
	if p.keyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
	}
	name, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// A table repeats under the database the way a row-bearing element
	// repeats under its parent document.
	table := xmltree.New(name, xmltree.Properties{MinOccurs: 0, MaxOccurs: xmltree.Unbounded})
	seen := map[string]*xmltree.Node{}
	for {
		if err := p.tableEntry(table, seen); err != nil {
			return nil, fmt.Errorf("ddl: table %q: %w", name, err)
		}
		t := p.next()
		if t.kind != 'p' {
			return nil, fmt.Errorf("ddl: table %q: expected , or ), got %q", name, t.text)
		}
		if t.text == ")" {
			break
		}
		if t.text != "," {
			return nil, fmt.Errorf("ddl: table %q: expected , or ), got %q", name, t.text)
		}
	}
	// Table options (ENGINE=..., WITHOUT ROWID, ...) run to the
	// statement terminator.
	for p.pos < len(p.tokens) {
		t := p.next()
		if t.kind == 'p' && t.text == ";" {
			break
		}
	}
	if len(table.Children) == 0 {
		return nil, fmt.Errorf("ddl: table %q has no columns", name)
	}
	return table, nil
}

// tableEntry parses one comma-separated item of a table body: a column
// definition or a table-level constraint.
func (p *parser) tableEntry(table *xmltree.Node, seen map[string]*xmltree.Node) error {
	if p.keyword("CONSTRAINT") {
		if _, err := p.identifier("constraint name"); err != nil {
			return err
		}
		return p.tableConstraint(table, seen)
	}
	switch {
	case p.peekKeyword("PRIMARY"), p.peekKeyword("FOREIGN"), p.peekKeyword("UNIQUE"),
		p.peekKeyword("CHECK"), p.peekKeyword("KEY"), p.peekKeyword("INDEX"):
		return p.tableConstraint(table, seen)
	}
	return p.column(table, seen)
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == 'i' && strings.EqualFold(t.text, kw)
}

// tableConstraint parses PRIMARY KEY / FOREIGN KEY / UNIQUE / CHECK /
// KEY / INDEX at table level, marking listed columns where relevant.
func (p *parser) tableConstraint(table *xmltree.Node, seen map[string]*xmltree.Node) error {
	switch {
	case p.keyword("PRIMARY"):
		if err := p.expectKeyword("KEY"); err != nil {
			return err
		}
		cols, err := p.columnList()
		if err != nil {
			return err
		}
		for _, c := range cols {
			node, ok := seen[c]
			if !ok {
				return fmt.Errorf("PRIMARY KEY names unknown column %q", c)
			}
			markKey(node)
		}
	case p.keyword("FOREIGN"):
		if err := p.expectKeyword("KEY"); err != nil {
			return err
		}
		cols, err := p.columnList()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return err
		}
		if err := p.references(); err != nil {
			return err
		}
		for _, c := range cols {
			node, ok := seen[c]
			if !ok {
				return fmt.Errorf("FOREIGN KEY names unknown column %q", c)
			}
			if node.Props.Use == "" {
				node.Props.Use = "keyref"
			}
		}
	case p.keyword("UNIQUE"), p.keyword("CHECK"):
		if err := p.skipParens(); err != nil {
			return err
		}
	case p.keyword("KEY"), p.keyword("INDEX"):
		// MySQL secondary index: optional name, then the column list.
		if p.peek().kind == 'i' {
			p.pos++
		}
		if err := p.skipParens(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unsupported table constraint at %q", p.peek().text)
	}
	return nil
}

// columnList parses "(a, b, c)".
func (p *parser) columnList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		name, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		cols = append(cols, name)
		t := p.next()
		if t.kind == 'p' && t.text == ")" {
			return cols, nil
		}
		if t.kind != 'p' || t.text != "," {
			return nil, fmt.Errorf("ddl: expected , or ) in column list, got %q", t.text)
		}
	}
}

// references parses "other (col, ...)" with an optional ON DELETE/UPDATE
// action tail.
func (p *parser) references() error {
	if _, err := p.identifier("referenced table"); err != nil {
		return err
	}
	if p.peek().kind == 'p' && p.peek().text == "(" {
		if _, err := p.columnList(); err != nil {
			return err
		}
	}
	for p.keyword("ON") {
		// ON DELETE CASCADE / ON UPDATE SET NULL / ...
		if p.peek().kind != 'i' {
			return fmt.Errorf("ddl: malformed ON action")
		}
		p.pos++ // DELETE/UPDATE
		if p.peek().kind != 'i' {
			return fmt.Errorf("ddl: malformed ON action")
		}
		p.pos++ // CASCADE/RESTRICT/SET/NO
		if p.peekKeyword("NULL") || p.peekKeyword("DEFAULT") || p.peekKeyword("ACTION") {
			p.pos++
		}
	}
	return nil
}

// skipParens consumes a balanced "(...)" group.
func (p *parser) skipParens() error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.pos >= len(p.tokens) {
			return fmt.Errorf("ddl: unterminated ( group")
		}
		t := p.next()
		if t.kind == 'p' {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	return nil
}

// markKey records primary-key membership: the XSD key idiom (Use "key")
// plus the NOT NULL a key implies.
func markKey(node *xmltree.Node) {
	node.Props.Use = "key"
	node.Props.MinOccurs = 1
}

// column parses one column definition into a leaf node of the table.
func (p *parser) column(table *xmltree.Node, seen map[string]*xmltree.Node) error {
	name, err := p.identifier("column name")
	if err != nil {
		return err
	}
	if _, dup := seen[name]; dup {
		return fmt.Errorf("column %q declared twice", name)
	}
	typ, err := p.columnType()
	if err != nil {
		return fmt.Errorf("column %q: %w", name, err)
	}
	// SQL columns are nullable unless constrained otherwise: the
	// relational counterpart of minOccurs 0.
	props := xmltree.Properties{Type: typ, MinOccurs: 0, MaxOccurs: 1}
	node := xmltree.New(name, props)
	if err := p.columnConstraints(node); err != nil {
		return fmt.Errorf("column %q: %w", name, err)
	}
	table.Add(node)
	seen[name] = node
	return nil
}

// sqlTypes maps SQL column types (lowercased, length arguments stripped)
// onto the XSD datatype table, so the datatype-compatibility relation of
// internal/xmltree spans both worlds.
var sqlTypes = map[string]string{
	"int": "int", "integer": "int", "mediumint": "int", "serial": "int",
	"bigint": "long", "bigserial": "long",
	"smallint": "short", "smallserial": "short",
	"tinyint": "byte",
	"varchar": "string", "char": "string", "character": "string",
	"nchar": "string", "nvarchar": "string", "text": "string",
	"tinytext": "string", "mediumtext": "string", "longtext": "string",
	"clob": "string", "uuid": "string", "json": "string", "jsonb": "string",
	"xml":     "string",
	"decimal": "decimal", "numeric": "decimal", "money": "decimal",
	"float": "float", "real": "float",
	"double": "double",
	"bool":   "boolean", "boolean": "boolean",
	"date": "date", "time": "time",
	"timestamp": "dateTime", "timestamptz": "dateTime", "datetime": "dateTime",
	"interval": "duration",
	"blob":     "base64Binary", "binary": "base64Binary",
	"varbinary": "base64Binary", "bytea": "base64Binary",
	"tinyblob": "base64Binary", "mediumblob": "base64Binary",
	"longblob": "base64Binary", "image": "base64Binary",
	"enum": "token", "set": "token",
}

// columnType parses the type name — including the two-word forms DOUBLE
// PRECISION and CHARACTER VARYING and the TIMESTAMP WITH/WITHOUT TIME
// ZONE tail — plus an optional length argument list.
func (p *parser) columnType() (string, error) {
	t := p.peek()
	if t.kind != 'i' {
		return "", fmt.Errorf("expected type, got %q", t.text)
	}
	p.pos++
	word := strings.ToLower(t.text)
	switch word {
	case "double":
		p.keyword("PRECISION")
	case "character", "char":
		if p.keyword("VARYING") {
			word = "varchar"
		}
	}
	// Length/precision arguments and enum value lists: skip.
	if p.peek().kind == 'p' && p.peek().text == "(" {
		if err := p.skipParens(); err != nil {
			return "", err
		}
	}
	if word == "timestamp" || word == "time" {
		if p.keyword("WITH") || p.keyword("WITHOUT") {
			if err := p.expectKeyword("TIME"); err != nil {
				return "", err
			}
			if err := p.expectKeyword("ZONE"); err != nil {
				return "", err
			}
		}
	}
	if mapped, ok := sqlTypes[word]; ok {
		return mapped, nil
	}
	// Unknown vendor type: keep the lowercased name as an opaque type;
	// TypeCompatible treats it as equal-only.
	return word, nil
}

// columnConstraints consumes the constraint tail of a column definition
// up to the next comma or closing paren.
func (p *parser) columnConstraints(node *xmltree.Node) error {
	for {
		t := p.peek()
		if t.kind == 'p' && (t.text == "," || t.text == ")") {
			return nil
		}
		switch {
		case p.keyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return err
			}
			node.Props.MinOccurs = 1
		case p.keyword("NULL"):
			node.Props.MinOccurs = 0
		case p.keyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return err
			}
			markKey(node)
		case p.keyword("UNIQUE"):
			// uniqueness does not change the tree properties
		case p.keyword("REFERENCES"):
			if err := p.references(); err != nil {
				return err
			}
			if node.Props.Use == "" {
				node.Props.Use = "keyref"
			}
		case p.keyword("DEFAULT"):
			v := p.next()
			switch v.kind {
			case 's', 'n', 'i':
				node.Props.Default = v.text
			default:
				return fmt.Errorf("malformed DEFAULT value %q", v.text)
			}
			// Function defaults: DEFAULT now(), DEFAULT nextval('...').
			if p.peek().kind == 'p' && p.peek().text == "(" {
				if err := p.skipParens(); err != nil {
					return err
				}
			}
		case p.keyword("CHECK"):
			if err := p.skipParens(); err != nil {
				return err
			}
		case p.keyword("AUTO_INCREMENT"), p.keyword("AUTOINCREMENT"),
			p.keyword("GENERATED"):
			// GENERATED ALWAYS AS IDENTITY / BY DEFAULT AS IDENTITY:
			// consume keywords until the next constraint boundary.
			for p.peek().kind == 'i' && !p.atConstraintKeyword() {
				p.pos++
			}
		case p.keyword("COMMENT"):
			if p.peek().kind != 's' {
				return fmt.Errorf("malformed COMMENT")
			}
			p.pos++
		case p.keyword("COLLATE"):
			if p.peek().kind != 'i' && p.peek().kind != 's' {
				return fmt.Errorf("malformed COLLATE")
			}
			p.pos++
		default:
			return fmt.Errorf("unsupported constraint at %q", t.text)
		}
	}
}

// atConstraintKeyword reports whether the next token starts a recognized
// constraint (used to end open-ended keyword runs like GENERATED ...).
func (p *parser) atConstraintKeyword() bool {
	for _, kw := range []string{"NOT", "NULL", "PRIMARY", "UNIQUE", "REFERENCES",
		"DEFAULT", "CHECK", "COMMENT", "COLLATE"} {
		if p.peekKeyword(kw) {
			return true
		}
	}
	return false
}
