package xsd

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qmatch/internal/xmltree"
)

// referenceParseAll is the parser as it was before decode.go: encoding/xml's
// strict Decoder and reflective Unmarshal fill the raw declarations from
// their struct tags, and xsdGroup.UnmarshalXML below keeps a model group's
// items in document order. The resolver is shared. decode.go must accept
// exactly what this accepts, except documents nested deeper than maxDepth,
// and build equal trees.
func referenceParseAll(s string) ([]*xmltree.Node, error) {
	var doc xsdSchema
	dec := xml.NewDecoder(strings.NewReader(s))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("xsd: parse: %w", err)
	}
	if doc.XMLName.Local != "schema" {
		return nil, fmt.Errorf("xsd: root element is %q, want schema", doc.XMLName.Local)
	}
	return resolve(&doc)
}

// UnmarshalXML decodes the group's children in document order, skipping
// constructs outside the supported subset (annotations, wildcards).
func (g *xsdGroup) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "element":
				var e xsdElement
				if err := d.DecodeElement(&e, &t); err != nil {
					return err
				}
				g.Items = append(g.Items, groupItem{Element: &e})
			case "sequence", "choice", "all":
				var sub xsdGroup
				if err := d.DecodeElement(&sub, &t); err != nil {
					return err
				}
				g.Items = append(g.Items, groupItem{Group: &sub})
			case "group":
				var ref xsdGroupRef
				if err := d.DecodeElement(&ref, &t); err != nil {
					return err
				}
				g.Items = append(g.Items, groupItem{GroupRef: ref.Ref})
			default:
				if err := d.Skip(); err != nil {
					return err
				}
			}
		case xml.EndElement:
			return nil
		}
	}
}

// checkAgainstReference fails t unless ParseAll and the reference agree on
// data: both reject it, or both accept it and build equal trees. Beyond
// maxDepth only ParseAll must reject.
func checkAgainstReference(t *testing.T, data string) (roots []*xmltree.Node) {
	t.Helper()
	roots, err := ParseAll(data)
	want, refErr := referenceParseAll(data)
	switch {
	case errors.Is(err, errTooDeep):
		return nil
	case err != nil && refErr != nil:
		return nil
	case err != nil:
		t.Fatalf("decoder rejects what the reference accepts: %v\n%q", err, data)
	case refErr != nil:
		t.Fatalf("decoder accepts what the reference rejects: %v\n%q", refErr, data)
	}
	if len(roots) != len(want) {
		t.Fatalf("decoder built %d roots, the reference %d\n%q", len(roots), len(want), data)
	}
	for i := range roots {
		if !xmltree.Equal(roots[i], want[i]) {
			t.Fatalf("root %d differs from the reference:\n--- decoder ---\n%s--- reference ---\n%s\n%q",
				i, roots[i].Dump(), want[i].Dump(), data)
		}
	}
	return roots
}
