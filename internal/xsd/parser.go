// Package xsd parses XML Schema documents into the schema tree model of
// package xmltree, and renders trees back to XSD. It is the from-scratch
// substitute for the XML Schema tooling the QMatch paper relied on
// (DESIGN.md §2): it covers the constructs the paper's schemas exercise —
// global and local element declarations, named and anonymous complex types,
// sequence/choice/all groups, attributes, simple types with restriction,
// simpleContent/complexContent derivation, element and attribute references,
// occurrence constraints, and recursive type definitions.
//
// Documents are read by a byte-level decoder (decode.go) that accepts what
// encoding/xml's strict Decoder accepts, within a nesting bound of 4,096
// elements, and fills the raw declarations below as xml.Unmarshal would
// from their struct tags. encoding/xml's reflective decode remains in the
// tests as the reference the decoder is checked against.
package xsd

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"qmatch/internal/xmltree"
)

// Raw document shapes. Children and attributes match by local name, so any
// schema namespace prefix (xs:, xsd:, none) is accepted. The field tags say
// so to encoding/xml, which reads these structs in the reference decode of
// the tests; decode.go's attr and child methods give the same names.

type xsdSchema struct {
	XMLName         xml.Name            `xml:"schema"` // the reference decode's root check
	Elements        []xsdElement        `xml:"element"`
	ComplexTypes    []xsdComplexType    `xml:"complexType"`
	SimpleTypes     []xsdSimpleType     `xml:"simpleType"`
	Attributes      []xsdAttribute      `xml:"attribute"`
	Groups          []xsdNamedGroup     `xml:"group"`
	AttributeGroups []xsdAttributeGroup `xml:"attributeGroup"`
}

// xsdNamedGroup is a reusable named model group declaration.
type xsdNamedGroup struct {
	Name     string    `xml:"name,attr"`
	Sequence *xsdGroup `xml:"sequence"`
	Choice   *xsdGroup `xml:"choice"`
	All      *xsdGroup `xml:"all"`
}

// xsdAttributeGroup is a reusable named attribute bundle.
type xsdAttributeGroup struct {
	Name       string              `xml:"name,attr"`
	Ref        string              `xml:"ref,attr"`
	Attributes []xsdAttribute      `xml:"attribute"`
	Nested     []xsdAttributeGroup `xml:"attributeGroup"`
}

type xsdElement struct {
	Name        string          `xml:"name,attr"`
	Type        string          `xml:"type,attr"`
	Ref         string          `xml:"ref,attr"`
	MinOccurs   string          `xml:"minOccurs,attr"`
	MaxOccurs   string          `xml:"maxOccurs,attr"`
	Nillable    string          `xml:"nillable,attr"`
	Fixed       string          `xml:"fixed,attr"`
	Default     string          `xml:"default,attr"`
	ComplexType *xsdComplexType `xml:"complexType"`
	SimpleType  *xsdSimpleType  `xml:"simpleType"`
}

type xsdComplexType struct {
	Name            string              `xml:"name,attr"`
	Sequence        *xsdGroup           `xml:"sequence"`
	Choice          *xsdGroup           `xml:"choice"`
	All             *xsdGroup           `xml:"all"`
	GroupRef        *xsdGroupRef        `xml:"group"`
	Attributes      []xsdAttribute      `xml:"attribute"`
	AttributeGroups []xsdAttributeGroup `xml:"attributeGroup"`
	SimpleContent   *xsdContent         `xml:"simpleContent"`
	ComplexContent  *xsdContent         `xml:"complexContent"`
}

// xsdGroupRef is a use-site reference to a named model group.
type xsdGroupRef struct {
	Ref string `xml:"ref,attr"`
}

// xsdGroup is a model group (sequence, choice or all). Its element
// declarations and nested groups are kept as one list in document order:
// separate slices per kind would lose the interleaving.
type xsdGroup struct {
	Items []groupItem
}

type groupItem struct {
	Element  *xsdElement
	Group    *xsdGroup
	GroupRef string // reference to a named model group
}

type xsdContent struct {
	Extension   *xsdDerivation `xml:"extension"`
	Restriction *xsdDerivation `xml:"restriction"`
}

type xsdDerivation struct {
	Base       string         `xml:"base,attr"`
	Sequence   *xsdGroup      `xml:"sequence"`
	Choice     *xsdGroup      `xml:"choice"`
	All        *xsdGroup      `xml:"all"`
	Attributes []xsdAttribute `xml:"attribute"`
}

type xsdSimpleType struct {
	Name        string          `xml:"name,attr"`
	Restriction *xsdRestriction `xml:"restriction"`
	List        *xsdList        `xml:"list"`
	Union       *xsdUnion       `xml:"union"`
}

type xsdRestriction struct {
	Base string `xml:"base,attr"`
}

type xsdList struct {
	ItemType string `xml:"itemType,attr"`
}

type xsdUnion struct {
	MemberTypes string `xml:"memberTypes,attr"`
}

type xsdAttribute struct {
	Name    string `xml:"name,attr"`
	Type    string `xml:"type,attr"`
	Ref     string `xml:"ref,attr"`
	Use     string `xml:"use,attr"`
	Fixed   string `xml:"fixed,attr"`
	Default string `xml:"default,attr"`
}

// ParseString parses an XSD document and returns the schema tree rooted at
// its first global element declaration.
func ParseString(s string) (*xmltree.Node, error) {
	roots, err := ParseAll(s)
	if err != nil {
		return nil, err
	}
	return roots[0], nil
}

// ParseAll parses an XSD document and returns one schema tree per global
// element declaration, in document order. It returns an error for
// malformed XML, for elements nested deeper than 4,096, for schemas with
// no global element, and for dangling element or attribute references.
func ParseAll(s string) ([]*xmltree.Node, error) {
	doc, err := decode(s)
	if err != nil {
		return nil, err
	}
	return resolve(doc)
}

// resolve builds one tree per global element declaration of doc.
func resolve(doc *xsdSchema) ([]*xmltree.Node, error) {
	if len(doc.Elements) == 0 {
		return nil, fmt.Errorf("xsd: schema declares no global elements")
	}
	res := newResolver(doc)
	roots := make([]*xmltree.Node, 0, len(doc.Elements))
	for i := range doc.Elements {
		n, err := res.element(&doc.Elements[i], i+1)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	return roots, nil
}

// resolver expands raw declarations into xmltree nodes, resolving named
// type and ref lookups with a cycle guard for recursive types.
type resolver struct {
	complexTypes map[string]*xsdComplexType
	simpleTypes  map[string]*xsdSimpleType
	globalElems  map[string]*xsdElement
	globalAttrs  map[string]*xsdAttribute
	groups       map[string]*xsdNamedGroup
	attrGroups   map[string]*xsdAttributeGroup
	expanding    map[string]bool // named complex types / groups on the stack
}

func newResolver(doc *xsdSchema) *resolver {
	r := &resolver{
		complexTypes: map[string]*xsdComplexType{},
		simpleTypes:  map[string]*xsdSimpleType{},
		globalElems:  map[string]*xsdElement{},
		globalAttrs:  map[string]*xsdAttribute{},
		expanding:    map[string]bool{},
	}
	for i := range doc.ComplexTypes {
		ct := &doc.ComplexTypes[i]
		if ct.Name != "" {
			r.complexTypes[ct.Name] = ct
		}
	}
	for i := range doc.SimpleTypes {
		st := &doc.SimpleTypes[i]
		if st.Name != "" {
			r.simpleTypes[st.Name] = st
		}
	}
	for i := range doc.Elements {
		e := &doc.Elements[i]
		if e.Name != "" {
			r.globalElems[e.Name] = e
		}
	}
	for i := range doc.Attributes {
		a := &doc.Attributes[i]
		if a.Name != "" {
			r.globalAttrs[a.Name] = a
		}
	}
	r.groups = map[string]*xsdNamedGroup{}
	for i := range doc.Groups {
		g := &doc.Groups[i]
		if g.Name != "" {
			r.groups[g.Name] = g
		}
	}
	r.attrGroups = map[string]*xsdAttributeGroup{}
	for i := range doc.AttributeGroups {
		ag := &doc.AttributeGroups[i]
		if ag.Name != "" {
			r.attrGroups[ag.Name] = ag
		}
	}
	return r
}

// element converts one element declaration (possibly a ref) into a node.
func (r *resolver) element(e *xsdElement, order int) (*xmltree.Node, error) {
	decl := e
	if e.Ref != "" {
		target, ok := r.globalElems[local(e.Ref)]
		if !ok {
			return nil, fmt.Errorf("xsd: unresolved element ref %q", e.Ref)
		}
		decl = target
	}
	if decl.Name == "" {
		return nil, fmt.Errorf("xsd: element with neither name nor ref")
	}
	props, err := elementProps(e, decl)
	if err != nil {
		return nil, err
	}
	props.Order = order
	node := xmltree.New(decl.Name, props)

	switch {
	case decl.ComplexType != nil:
		if err := r.expandComplex(node, decl.ComplexType); err != nil {
			return nil, err
		}
	case decl.Type != "":
		name := local(decl.Type)
		if ct, ok := r.complexTypes[name]; ok {
			node.Props.Type = name
			if r.expanding[name] {
				// Recursive type: stop expansion, keep a typed leaf.
				return node, nil
			}
			r.expanding[name] = true
			err := r.expandComplex(node, ct)
			delete(r.expanding, name)
			if err != nil {
				return nil, err
			}
		} else if st, ok := r.simpleTypes[name]; ok {
			node.Props.Type = r.simpleBase(st, name)
		}
		// Built-in or foreign type: keep the canonical declared name.
	case decl.SimpleType != nil:
		node.Props.Type = r.simpleBase(decl.SimpleType, "")
	}
	return node, nil
}

// simpleBase resolves a simple type to its primitive base, following
// restriction chains, list item types and the first member of unions.
// Unresolvable chains return the last known name; fallback keeps the
// original name.
func (r *resolver) simpleBase(st *xsdSimpleType, name string) string {
	seen := map[string]bool{name: true}
	for st != nil {
		var base string
		switch {
		case st.Restriction != nil:
			base = local(st.Restriction.Base)
		case st.List != nil:
			base = local(st.List.ItemType)
		case st.Union != nil:
			members := strings.Fields(st.Union.MemberTypes)
			if len(members) == 0 {
				return name
			}
			base = local(members[0])
		default:
			return name
		}
		next, ok := r.simpleTypes[base]
		if !ok || seen[base] {
			return base
		}
		seen[base] = true
		st = next
	}
	return name
}

// expandComplex attaches the attributes and child elements of a complex
// type to node. Attributes come first, matching the tree model's convention.
func (r *resolver) expandComplex(node *xmltree.Node, ct *xsdComplexType) error {
	if sc := ct.SimpleContent; sc != nil {
		d := sc.Extension
		if d == nil {
			d = sc.Restriction
		}
		if d != nil {
			node.Props.Type = local(d.Base)
			return r.attachAttrs(node, d.Attributes)
		}
		return nil
	}
	if cc := ct.ComplexContent; cc != nil {
		d := cc.Extension
		if d == nil {
			d = cc.Restriction
		}
		if d == nil {
			return nil
		}
		// Expand the base type's content first, then the derivation's own.
		if base, ok := r.complexTypes[local(d.Base)]; ok && !r.expanding[local(d.Base)] {
			r.expanding[local(d.Base)] = true
			err := r.expandComplex(node, base)
			delete(r.expanding, local(d.Base))
			if err != nil {
				return err
			}
		}
		if err := r.attachAttrs(node, d.Attributes); err != nil {
			return err
		}
		return r.attachGroups(node, d.Sequence, d.Choice, d.All)
	}
	if err := r.attachAttrs(node, ct.Attributes); err != nil {
		return err
	}
	for i := range ct.AttributeGroups {
		if err := r.attachAttrGroup(node, &ct.AttributeGroups[i]); err != nil {
			return err
		}
	}
	if ct.GroupRef != nil {
		if err := r.attachNamedGroup(node, ct.GroupRef.Ref); err != nil {
			return err
		}
	}
	return r.attachGroups(node, ct.Sequence, ct.Choice, ct.All)
}

// attachNamedGroup expands a reference to a named model group, guarding
// against recursive group definitions.
func (r *resolver) attachNamedGroup(node *xmltree.Node, ref string) error {
	name := local(ref)
	g, ok := r.groups[name]
	if !ok {
		return fmt.Errorf("xsd: unresolved group ref %q", ref)
	}
	key := "group:" + name
	if r.expanding[key] {
		return fmt.Errorf("xsd: recursive group %q", name)
	}
	r.expanding[key] = true
	defer delete(r.expanding, key)
	return r.attachGroups(node, g.Sequence, g.Choice, g.All)
}

// attachAttrGroup expands an attribute group (a definition or a ref),
// including nested attribute groups.
func (r *resolver) attachAttrGroup(node *xmltree.Node, ag *xsdAttributeGroup) error {
	decl := ag
	if ag.Ref != "" {
		target, ok := r.attrGroups[local(ag.Ref)]
		if !ok {
			return fmt.Errorf("xsd: unresolved attributeGroup ref %q", ag.Ref)
		}
		decl = target
	}
	key := "attrgroup:" + decl.Name
	if decl.Name != "" {
		if r.expanding[key] {
			return fmt.Errorf("xsd: recursive attributeGroup %q", decl.Name)
		}
		r.expanding[key] = true
		defer delete(r.expanding, key)
	}
	if err := r.attachAttrs(node, decl.Attributes); err != nil {
		return err
	}
	for i := range decl.Nested {
		if err := r.attachAttrGroup(node, &decl.Nested[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *resolver) attachGroups(node *xmltree.Node, groups ...*xsdGroup) error {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if err := r.attachGroup(node, g); err != nil {
			return err
		}
	}
	return nil
}

// attachGroup flattens a model group (sequence/choice/all, possibly nested)
// into node's child list, preserving document order.
func (r *resolver) attachGroup(node *xmltree.Node, g *xsdGroup) error {
	for _, item := range g.Items {
		switch {
		case item.Element != nil:
			child, err := r.element(item.Element, 0)
			if err != nil {
				return err
			}
			node.Add(child)
		case item.Group != nil:
			if err := r.attachGroup(node, item.Group); err != nil {
				return err
			}
		case item.GroupRef != "":
			if err := r.attachNamedGroup(node, item.GroupRef); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *resolver) attachAttrs(node *xmltree.Node, attrs []xsdAttribute) error {
	for i := range attrs {
		a := &attrs[i]
		decl := a
		if a.Ref != "" {
			target, ok := r.globalAttrs[local(a.Ref)]
			if !ok {
				return fmt.Errorf("xsd: unresolved attribute ref %q", a.Ref)
			}
			decl = target
		}
		if decl.Name == "" {
			return fmt.Errorf("xsd: attribute with neither name nor ref")
		}
		props := xmltree.Properties{
			Type:        local(decl.Type),
			IsAttribute: true,
			Use:         firstNonEmpty(a.Use, decl.Use),
			Fixed:       firstNonEmpty(a.Fixed, decl.Fixed),
			Default:     firstNonEmpty(a.Default, decl.Default),
			MinOccurs:   1,
			MaxOccurs:   1,
		}
		if props.Use == "optional" || props.Use == "" {
			props.MinOccurs = 0
		}
		node.Add(xmltree.New(decl.Name, props))
	}
	return nil
}

// elementProps merges the use-site declaration e (which carries occurrence
// constraints) with the resolved declaration decl (which carries type and
// value facets).
func elementProps(e, decl *xsdElement) (xmltree.Properties, error) {
	minOcc, err := parseOccurs(e.MinOccurs, 1)
	if err != nil {
		return xmltree.Properties{}, fmt.Errorf("xsd: element %s: bad minOccurs %q", decl.Name, e.MinOccurs)
	}
	maxOcc, err := parseOccurs(e.MaxOccurs, 1)
	if err != nil {
		return xmltree.Properties{}, fmt.Errorf("xsd: element %s: bad maxOccurs %q", decl.Name, e.MaxOccurs)
	}
	return xmltree.Properties{
		Type:      local(decl.Type),
		MinOccurs: minOcc,
		MaxOccurs: maxOcc,
		Nillable:  decl.Nillable == "true" || decl.Nillable == "1",
		Fixed:     decl.Fixed,
		Default:   decl.Default,
	}, nil
}

func parseOccurs(s string, def int) (int, error) {
	switch s {
	case "":
		return def, nil
	case "unbounded":
		return xmltree.Unbounded, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid occurs %q", s)
	}
	return n, nil
}

// local strips a namespace prefix from a QName.
func local(qname string) string {
	if i := strings.LastIndexByte(qname, ':'); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}
