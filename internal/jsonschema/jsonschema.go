// Package jsonschema parses JSON Schema documents (a draft-07 subset)
// into the schema tree model, so JSON-described data feeds the same
// matchers as XML Schemas — the heterogeneous-source argument of the
// XML-matcher surveys: a matcher earns its keep when structurally
// different schema languages meet in one tree model. The supported
// subset covers what element matching consumes:
//
//	properties           → ordered children (document order is preserved)
//	required             → minOccurs 1 (absent → 0)
//	type                 → leaf datatype, mapped onto the XSD type table
//	format               → datatype refinement (date-time → dateTime, ...)
//	items                → the property repeats (maxOccurs unbounded)
//	$ref                 → within-document expansion with cycle cut-off
//	oneOf / anyOf        → branches flattened as optional children
//	enum                 → "token" when no type is declared
//	const / default      → Fixed / Default value constraints
//
// External $ref targets, patternProperties, additionalProperties
// schemas, and conditional keywords (if/then/else, not) are outside the
// subset; unsupported keywords are ignored, external refs error. The
// parser reads the document through a token stream so that property
// order — the tree model's Order axis — follows the document, not a map.
package jsonschema

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"qmatch/internal/xmltree"
)

// maxDepth bounds JSON nesting so hostile documents cannot exhaust the
// stack; maxNodes bounds tree growth under $ref fan-out (a DAG of
// definitions each referencing the next twice grows exponentially).
const (
	maxDepth = 512
	maxNodes = 1 << 16
)

// value is one JSON value with object members in document order.
type value struct {
	kind byte // 'o' object, 'a' array, 's' string, 'n' number, 'b' bool, 'z' null
	str  string
	b    bool
	obj  []member
	arr  []*value
}

type member struct {
	key string
	val *value
}

// get returns the value of the named object member, or nil.
func (v *value) get(key string) *value {
	if v == nil || v.kind != 'o' {
		return nil
	}
	for _, m := range v.obj {
		if m.key == key {
			return m.val
		}
	}
	return nil
}

// ParseString parses a JSON Schema document and returns its schema tree.
// The root label is the schema's "title" (falling back to "schema").
func ParseString(s string) (*xmltree.Node, error) {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	doc, err := parseValue(dec, 0)
	if err != nil {
		return nil, fmt.Errorf("jsonschema: %w", err)
	}
	// A single trailing token (whitespace aside) must end the document.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jsonschema: trailing content after document")
	}
	if doc.kind != 'o' && doc.kind != 'b' {
		return nil, fmt.Errorf("jsonschema: document is not an object")
	}
	label := "schema"
	if t := doc.get("title"); t != nil && t.kind == 's' && t.str != "" {
		label = t.str
	}
	b := &builder{root: doc, expanding: map[string]bool{}}
	node, err := b.build(label, xmltree.Properties{MinOccurs: 1, MaxOccurs: 1, Order: 1}, doc)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// parseValue reads one JSON value off the decoder into the ordered model.
func parseValue(dec *json.Decoder, depth int) (*value, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("document nests deeper than %d levels", maxDepth)
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	return valueFrom(dec, tok, depth)
}

func valueFrom(dec *json.Decoder, tok json.Token, depth int) (*value, error) {
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			v := &value{kind: 'o'}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("object key is not a string")
				}
				mv, err := parseValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				v.obj = append(v.obj, member{key: key, val: mv})
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, err
			}
			return v, nil
		case '[':
			v := &value{kind: 'a'}
			for dec.More() {
				ev, err := parseValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				v.arr = append(v.arr, ev)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, err
			}
			return v, nil
		}
		return nil, fmt.Errorf("unexpected delimiter %v", t)
	case string:
		return &value{kind: 's', str: t}, nil
	case json.Number:
		return &value{kind: 'n', str: t.String()}, nil
	case bool:
		return &value{kind: 'b', b: t}, nil
	case nil:
		return &value{kind: 'z'}, nil
	}
	return nil, fmt.Errorf("unexpected token %v", tok)
}

// typeMap carries the JSON primitive types onto the XSD datatype table
// (internal/xmltree/types.go), so the properties axis compares JSON and
// XML leaves through the same compatibility relation.
var typeMap = map[string]string{
	"string":  "string",
	"integer": "integer",
	"number":  "decimal",
	"boolean": "boolean",
}

// formatMap refines "string" through the draft-07 format keyword.
var formatMap = map[string]string{
	"date-time": "dateTime",
	"date":      "date",
	"time":      "time",
	"duration":  "duration",
	"uri":       "anyURI",
	"iri":       "anyURI",
}

// builder expands schema values into tree nodes.
type builder struct {
	root      *value
	expanding map[string]bool // $ref pointers currently on the stack
	nodes     int
}

// build constructs the node for one schema value.
func (b *builder) build(label string, props xmltree.Properties, schema *value) (*xmltree.Node, error) {
	if label == "" {
		return nil, fmt.Errorf("jsonschema: empty property name")
	}
	b.nodes++
	if b.nodes > maxNodes {
		return nil, fmt.Errorf("jsonschema: schema expands past %d nodes", maxNodes)
	}
	// Boolean schemas: "true" admits anything, "false" nothing — both are
	// untyped leaves for matching purposes.
	if schema.kind == 'b' {
		return xmltree.New(label, props), nil
	}
	if schema.kind != 'o' {
		return nil, fmt.Errorf("jsonschema: schema for %q is not an object", label)
	}
	// $ref replaces the schema (draft-07 semantics). A reference cycle
	// stops expanding at the repeated pointer, mirroring the recursive
	// content-model cut-off of the DTD and XSD parsers.
	if ref := schema.get("$ref"); ref != nil {
		if ref.kind != 's' {
			return nil, fmt.Errorf("jsonschema: $ref for %q is not a string", label)
		}
		target, err := b.resolve(ref.str)
		if err != nil {
			return nil, err
		}
		if b.expanding[ref.str] {
			return xmltree.New(label, props), nil
		}
		b.expanding[ref.str] = true
		defer delete(b.expanding, ref.str)
		return b.build(label, props, target)
	}
	// Arrays repeat the property itself: the items schema describes the
	// node, the occurrence bound records the repetition.
	if items := schema.get("items"); items != nil || typeName(schema) == "array" {
		props.MaxOccurs = xmltree.Unbounded
		if items == nil {
			return xmltree.New(label, props), nil
		}
		if items.kind == 'a' { // tuple form: flatten entries as children
			node := xmltree.New(label, props)
			for i, entry := range items.arr {
				child, err := b.build(fmt.Sprintf("%s%d", label, i+1),
					xmltree.Properties{MinOccurs: 0, MaxOccurs: 1}, entry)
				if err != nil {
					return nil, err
				}
				node.Add(child)
			}
			return node, nil
		}
		return b.build(label, props, items)
	}

	if t, ok := leafType(schema); ok {
		props.Type = t
	}
	if admitsNull(schema) {
		props.Nillable = true
	}
	if props.Type == "" && schema.get("enum") != nil {
		props.Type = "token"
	}
	if c := schema.get("const"); c != nil {
		props.Fixed = scalarString(c)
	}
	if d := schema.get("default"); d != nil {
		props.Default = scalarString(d)
	}

	node := xmltree.New(label, props)

	// properties → children, in document order; required → minOccurs.
	required := map[string]bool{}
	if req := schema.get("required"); req != nil && req.kind == 'a' {
		for _, r := range req.arr {
			if r.kind == 's' {
				required[r.str] = true
			}
		}
	}
	if propsVal := schema.get("properties"); propsVal != nil {
		if propsVal.kind != 'o' {
			return nil, fmt.Errorf("jsonschema: properties of %q is not an object", label)
		}
		for _, m := range propsVal.obj {
			cp := xmltree.Properties{MinOccurs: 0, MaxOccurs: 1}
			if required[m.key] {
				cp.MinOccurs = 1
			}
			child, err := b.build(m.key, cp, m.val)
			if err != nil {
				return nil, err
			}
			node.Add(child)
		}
	}
	// oneOf/anyOf: alternatives become optional children, like the DTD
	// parser flattens choice groups into optional siblings. Scalar
	// branches without properties contribute the node's own type when it
	// has none.
	for _, kw := range []string{"oneOf", "anyOf"} {
		branches := schema.get(kw)
		if branches == nil || branches.kind != 'a' {
			continue
		}
		for _, branch := range branches.arr {
			if branch.kind != 'o' {
				continue
			}
			if branch.get("properties") == nil && branch.get("$ref") == nil {
				if t, ok := leafType(branch); ok && node.Props.Type == "" {
					node.Props.Type = t
				}
				continue
			}
			alt, err := b.build(label, xmltree.Properties{MinOccurs: 0, MaxOccurs: 1}, branch)
			if err != nil {
				return nil, err
			}
			for _, c := range alt.Children {
				c.Props.MinOccurs = 0
				c.Props.Order = 0 // re-numbered by Add
				node.Add(c)
			}
			if node.Props.Type == "" && alt.Props.Type != "" {
				node.Props.Type = alt.Props.Type
			}
		}
	}
	return node, nil
}

// typeName returns the schema's declared type; a type array (draft-07
// union form) yields its first non-"null" entry.
func typeName(schema *value) string {
	t := schema.get("type")
	if t == nil {
		return ""
	}
	switch t.kind {
	case 's':
		return t.str
	case 'a':
		for _, e := range t.arr {
			if e.kind == 's' && e.str != "null" {
				return e.str
			}
		}
	}
	return ""
}

// admitsNull reports whether the declared type includes "null" — the
// JSON counterpart of nillable="true".
func admitsNull(schema *value) bool {
	t := schema.get("type")
	if t == nil {
		return false
	}
	switch t.kind {
	case 's':
		return t.str == "null"
	case 'a':
		for _, e := range t.arr {
			if e.kind == 's' && e.str == "null" {
				return true
			}
		}
	}
	return false
}

// leafType maps a schema's type/format pair onto the XSD datatype table.
func leafType(schema *value) (string, bool) {
	name := typeName(schema)
	mapped, ok := typeMap[name]
	if !ok {
		return "", false
	}
	if mapped == "string" {
		if f := schema.get("format"); f != nil && f.kind == 's' {
			if refined, ok := formatMap[f.str]; ok {
				return refined, true
			}
		}
	}
	return mapped, true
}

// scalarString renders a scalar value for the Fixed/Default constraints.
func scalarString(v *value) string {
	switch v.kind {
	case 's', 'n':
		return v.str
	case 'b':
		if v.b {
			return "true"
		}
		return "false"
	}
	return ""
}

// resolve follows a within-document JSON Pointer reference ("#",
// "#/definitions/Address", ...). External references are outside the
// supported subset.
func (b *builder) resolve(ref string) (*value, error) {
	if !strings.HasPrefix(ref, "#") {
		return nil, fmt.Errorf("jsonschema: external $ref %q is not supported", ref)
	}
	cur := b.root
	pointer := strings.TrimPrefix(ref, "#")
	if pointer == "" {
		return cur, nil
	}
	if !strings.HasPrefix(pointer, "/") {
		return nil, fmt.Errorf("jsonschema: malformed $ref %q", ref)
	}
	for _, raw := range strings.Split(pointer[1:], "/") {
		tokenName := strings.ReplaceAll(strings.ReplaceAll(raw, "~1", "/"), "~0", "~")
		var next *value
		if cur.kind == 'a' {
			if idx, err := strconv.Atoi(tokenName); err == nil && idx >= 0 && idx < len(cur.arr) {
				next = cur.arr[idx]
			}
		} else {
			next = cur.get(tokenName)
		}
		if next == nil {
			return nil, fmt.Errorf("jsonschema: $ref %q does not resolve", ref)
		}
		cur = next
	}
	return cur, nil
}
