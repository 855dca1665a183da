package xsd

import (
	"strings"
	"testing"
	"testing/quick"

	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

// Random byte soup must never panic the parser: it either errors or
// produces a tree, as the reference does.
func TestParseNeverPanics(t *testing.T) {
	prop := func(junk string) bool {
		checkAgainstReference(t, junk)
		checkAgainstReference(t, "<xs:schema xmlns:xs=\"x\">"+junk+"</xs:schema>")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Structured-but-mangled documents: mutate a valid schema document at a
// random position and confirm the parser stays total (no panics), agrees
// with the reference, and any returned tree is well-formed.
func TestParseMangled(t *testing.T) {
	base := Render(dataset.PO1())
	prop := func(pos uint16, b byte) bool {
		data := []byte(base)
		data[int(pos)%len(data)] = b
		roots := checkAgainstReference(t, string(data))
		if roots == nil {
			return true
		}
		// Any successfully parsed tree must be internally consistent.
		ok := true
		roots[0].Walk(func(n *xmltree.Node) bool {
			if n.Label == "" {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Render → Parse is idempotent for every corpus schema.
func TestRenderParseIdempotentOnCorpus(t *testing.T) {
	for _, name := range dataset.Names() {
		tree, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// The corpus contains labels that are legal in the tree model
		// but not in XML names (Item#); Render escapes attribute
		// values, not names, so skip those schemas here.
		if strings.Contains(Render(tree), "<xs:element name=\"Item#\"") {
			continue
		}
		back, err := ParseString(Render(tree))
		if err != nil {
			t.Errorf("%s: re-parse: %v", name, err)
			continue
		}
		again, err := ParseString(Render(back))
		if err != nil {
			t.Errorf("%s: second re-parse: %v", name, err)
			continue
		}
		if !xmltree.Equal(back, again) {
			t.Errorf("%s: render/parse not idempotent", name)
		}
	}
}

// FuzzParseXSD drives the schema parser with arbitrary documents. The
// parser must be total (error or tree, never a panic) and agree with the
// encoding/xml reference: both reject a document, or both accept it and
// build equal trees; beyond the nesting bound the parser alone rejects.
// Every parsed tree must be well-formed, and one Render→Parse cycle must
// reach a fixpoint: re-rendering the re-parsed tree reproduces the same
// tree. testdata/fuzz/FuzzParseXSD holds a seed for each XML rule the
// decoder mirrors.
func FuzzParseXSD(f *testing.F) {
	f.Add(Render(dataset.PO1()))
	f.Add(Render(dataset.PO2()))
	f.Add(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="PO" type="xs:string"/></xs:schema>`)
	f.Add(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO"><xs:complexType><xs:sequence minOccurs="0">
    <xs:element name="Item" maxOccurs="unbounded"/>
  </xs:sequence><xs:attribute name="id" use="required"/></xs:complexType></xs:element>
</xs:schema>`)
	f.Add(`<xs:schema xmlns:xs="x"><xs:element/></xs:schema>`)
	f.Add(`not xml at all`)
	f.Fuzz(func(t *testing.T, data string) {
		roots := checkAgainstReference(t, data)
		if roots == nil {
			return
		}
		tree := roots[0]
		ok := true
		tree.Walk(func(n *xmltree.Node) bool {
			if n.Label == "" {
				ok = false
			}
			return ok
		})
		if !ok {
			t.Fatalf("parsed tree has an empty label: %q", data)
		}
		// Render can emit labels that do not re-parse (names are not
		// escaped); when the cycle does re-parse, it must be a fixpoint.
		back, err := ParseString(Render(tree))
		if err != nil {
			return
		}
		again, err := ParseString(Render(back))
		if err != nil {
			t.Fatalf("second re-parse failed after the first succeeded: %v", err)
		}
		if !xmltree.Equal(back, again) {
			t.Fatalf("render/parse cycle not idempotent for %q", data)
		}
	})
}
