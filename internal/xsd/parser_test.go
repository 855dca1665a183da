package xsd

import (
	"errors"
	"strings"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

const poXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="OrderNo" type="xs:integer"/>
        <xs:element name="PurchaseInfo">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="BillingAddr" type="xs:string"/>
              <xs:element name="ShippingAddr" type="xs:string"/>
              <xs:element name="Lines">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="Item" type="xs:string" maxOccurs="unbounded"/>
                    <xs:element name="Quantity" type="xs:integer"/>
                    <xs:element name="UnitOfMeasure" type="xs:string" minOccurs="0"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
        <xs:element name="PurchaseDate" type="xs:date"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:ID" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func TestParseInlineComplexTypes(t *testing.T) {
	root, err := ParseString(poXSD)
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "PO" {
		t.Fatalf("root = %s", root.Label)
	}
	if got := root.Size(); got != 11 { // 10 elements + 1 attribute
		t.Fatalf("size = %d, want 11", got)
	}
	// Attribute precedes elements.
	if !root.Children[0].Props.IsAttribute || root.Children[0].Label != "id" {
		t.Fatalf("first child = %+v, want attribute id", root.Children[0])
	}
	q := root.Find("PO/PurchaseInfo/Lines/Quantity")
	if q == nil {
		t.Fatal("Quantity missing")
	}
	if q.Props.Type != "integer" {
		t.Fatalf("Quantity type = %q", q.Props.Type)
	}
	if q.Level() != 3 {
		t.Fatalf("Quantity level = %d", q.Level())
	}
	item := root.Find("PO/PurchaseInfo/Lines/Item")
	if item.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("Item maxOccurs = %d", item.Props.MaxOccurs)
	}
	uom := root.Find("PO/PurchaseInfo/Lines/UnitOfMeasure")
	if uom.Props.MinOccurs != 0 {
		t.Fatalf("UOM minOccurs = %d", uom.Props.MinOccurs)
	}
}

func TestParseNamedTypesAndRefs(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	  <element name="Catalog" type="CatalogType"/>
	  <element name="Book" type="BookType"/>
	  <complexType name="CatalogType">
	    <sequence>
	      <element ref="Book" maxOccurs="unbounded"/>
	    </sequence>
	    <attribute ref="version"/>
	  </complexType>
	  <complexType name="BookType">
	    <sequence>
	      <element name="Title" type="TitleType"/>
	      <element name="Year" type="gYear"/>
	    </sequence>
	  </complexType>
	  <simpleType name="TitleType">
	    <restriction base="string"/>
	  </simpleType>
	  <attribute name="version" type="string" use="optional"/>
	</schema>`
	roots, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	cat := roots[0]
	if cat.Props.Type != "CatalogType" {
		t.Fatalf("catalog type = %q", cat.Props.Type)
	}
	book := cat.Find("Catalog/Book")
	if book == nil {
		t.Fatal("ref not resolved")
	}
	if book.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("ref use-site occurs lost: %d", book.Props.MaxOccurs)
	}
	title := cat.Find("Catalog/Book/Title")
	if title == nil || title.Props.Type != "string" {
		t.Fatalf("simple type chain not resolved: %+v", title)
	}
	ver := cat.Find("Catalog/version")
	if ver == nil || !ver.Props.IsAttribute {
		t.Fatal("attribute ref not resolved")
	}
}

func TestParseRecursiveType(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Part" type="PartType"/>
	  <xs:complexType name="PartType">
	    <xs:sequence>
	      <xs:element name="Name" type="xs:string"/>
	      <xs:element name="SubPart" type="PartType" minOccurs="0"/>
	    </xs:sequence>
	  </xs:complexType>
	</xs:schema>`
	root, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := root.Find("Part/SubPart")
	if sub == nil {
		t.Fatal("SubPart missing")
	}
	// Recursion stops: SubPart is a typed leaf, not infinitely expanded.
	if !sub.IsLeaf() {
		t.Fatalf("recursive type expanded: %d children", len(sub.Children))
	}
	if sub.Props.Type != "PartType" {
		t.Fatalf("SubPart type = %q", sub.Props.Type)
	}
}

func TestParseChoiceAllAndNestedGroups(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Contact">
	    <xs:complexType>
	      <xs:sequence>
	        <xs:element name="Name" type="xs:string"/>
	        <xs:choice>
	          <xs:element name="Phone" type="xs:string"/>
	          <xs:element name="Email" type="xs:string"/>
	        </xs:choice>
	        <xs:sequence>
	          <xs:element name="City" type="xs:string"/>
	        </xs:sequence>
	      </xs:sequence>
	    </xs:complexType>
	  </xs:element>
	</xs:schema>`
	root, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Name", "Phone", "Email", "City"}
	if len(root.Children) != len(want) {
		t.Fatalf("children = %d, want %d", len(root.Children), len(want))
	}
	for i, w := range want {
		if root.Children[i].Label != w {
			t.Fatalf("child[%d] = %s, want %s", i, root.Children[i].Label, w)
		}
	}
}

func TestParseSimpleAndComplexContent(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Price">
	    <xs:complexType>
	      <xs:simpleContent>
	        <xs:extension base="xs:decimal">
	          <xs:attribute name="currency" type="xs:string"/>
	        </xs:extension>
	      </xs:simpleContent>
	    </xs:complexType>
	  </xs:element>
	  <xs:element name="Emp" type="EmpType"/>
	  <xs:complexType name="PersonType">
	    <xs:sequence>
	      <xs:element name="Name" type="xs:string"/>
	    </xs:sequence>
	  </xs:complexType>
	  <xs:complexType name="EmpType">
	    <xs:complexContent>
	      <xs:extension base="PersonType">
	        <xs:sequence>
	          <xs:element name="Salary" type="xs:decimal"/>
	        </xs:sequence>
	        <xs:attribute name="dept" type="xs:string"/>
	      </xs:extension>
	    </xs:complexContent>
	  </xs:complexType>
	</xs:schema>`
	roots, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	price := roots[0]
	if price.Props.Type != "decimal" {
		t.Fatalf("simpleContent base = %q", price.Props.Type)
	}
	if len(price.Children) != 1 || price.Children[0].Label != "currency" {
		t.Fatalf("simpleContent attrs = %v", price.Children)
	}
	emp := roots[1]
	if emp.Find("Emp/Name") == nil {
		t.Fatal("inherited element missing")
	}
	if emp.Find("Emp/Salary") == nil {
		t.Fatal("extension element missing")
	}
	if emp.Find("Emp/dept") == nil {
		t.Fatal("extension attribute missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed":     `<xs:schema xmlns:xs="x"><xs:element`,
		"wrong root":    `<foo/>`,
		"no elements":   `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>`,
		"dangling ref":  `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema"><s:element name="A"><s:complexType><s:sequence><s:element ref="Nope"/></s:sequence></s:complexType></s:element></s:schema>`,
		"dangling attr": `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema"><s:element name="A"><s:complexType><s:attribute ref="Nope"/></s:complexType></s:element></s:schema>`,
		"anon element":  `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema"><s:element name="A"><s:complexType><s:sequence><s:element type="s:string"/></s:sequence></s:complexType></s:element></s:schema>`,
		"bad occurs":    `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema"><s:element name="A"><s:complexType><s:sequence><s:element name="B" minOccurs="x"/></s:sequence></s:complexType></s:element></s:schema>`,
		"neg occurs":    `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema"><s:element name="A"><s:complexType><s:sequence><s:element name="B" maxOccurs="-2"/></s:sequence></s:complexType></s:element></s:schema>`,
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseNillableFixedDefault(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="A">
	    <xs:complexType>
	      <xs:sequence>
	        <xs:element name="B" type="xs:string" nillable="true" default="x"/>
	        <xs:element name="C" type="xs:string" fixed="y"/>
	      </xs:sequence>
	    </xs:complexType>
	  </xs:element>
	</xs:schema>`
	root, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	b := root.Find("A/B")
	if !b.Props.Nillable || b.Props.Default != "x" {
		t.Fatalf("B props = %+v", b.Props)
	}
	if c := root.Find("A/C"); c.Props.Fixed != "y" {
		t.Fatalf("C props = %+v", c.Props)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	orig, err := ParseString(poXSD)
	if err != nil {
		t.Fatal(err)
	}
	rendered := Render(orig)
	back, err := ParseString(rendered)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, rendered)
	}
	if !xmltree.Equal(orig, back) {
		t.Fatalf("round trip not equal:\n--- orig ---\n%s\n--- back ---\n%s", orig.Dump(), back.Dump())
	}
}

func TestRenderEscaping(t *testing.T) {
	n := xmltree.New(`A&B<"'>`, xmltree.Elem("string"))
	out := Render(n)
	if strings.ContainsAny(strings.Split(out, "name=")[1], "&<") &&
		!strings.Contains(out, "&amp;") {
		t.Fatalf("unescaped output: %s", out)
	}
	if _, err := ParseString(out); err != nil {
		t.Fatalf("escaped render does not parse: %v", err)
	}
}

func TestRenderCustomTypeName(t *testing.T) {
	n := xmltree.New("X", xmltree.Elem("MyType"))
	out := Render(n)
	if !strings.Contains(out, `type="MyType"`) {
		t.Fatalf("custom type mangled: %s", out)
	}
}

func TestParseNamedGroupsAndAttributeGroups(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Invoice" type="InvoiceType"/>
	  <xs:complexType name="InvoiceType">
	    <xs:group ref="HeaderGroup"/>
	    <xs:sequence>
	      <xs:element name="Total" type="xs:decimal"/>
	      <xs:group ref="FooterGroup"/>
	    </xs:sequence>
	    <xs:attributeGroup ref="AuditAttrs"/>
	  </xs:complexType>
	  <xs:group name="HeaderGroup">
	    <xs:sequence>
	      <xs:element name="InvoiceNo" type="xs:integer"/>
	      <xs:element name="IssueDate" type="xs:date"/>
	    </xs:sequence>
	  </xs:group>
	  <xs:group name="FooterGroup">
	    <xs:choice>
	      <xs:element name="Notes" type="xs:string"/>
	    </xs:choice>
	  </xs:group>
	  <xs:attributeGroup name="AuditAttrs">
	    <xs:attribute name="createdBy" type="xs:string"/>
	    <xs:attributeGroup ref="VersionAttrs"/>
	  </xs:attributeGroup>
	  <xs:attributeGroup name="VersionAttrs">
	    <xs:attribute name="version" type="xs:integer" use="required"/>
	  </xs:attributeGroup>
	</xs:schema>`
	root, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"Invoice/InvoiceNo", "Invoice/IssueDate", "Invoice/Total",
		"Invoice/Notes", "Invoice/createdBy", "Invoice/version",
	} {
		if root.Find(path) == nil {
			t.Errorf("path %s missing\n%s", path, root.Dump())
		}
	}
	if v := root.Find("Invoice/version"); v == nil || !v.Props.IsAttribute || v.Props.Use != "required" {
		t.Fatalf("nested attribute group attr = %+v", v)
	}
}

func TestParseGroupErrors(t *testing.T) {
	cases := map[string]string{
		"dangling group": `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema">
		  <s:element name="A"><s:complexType><s:group ref="Nope"/></s:complexType></s:element></s:schema>`,
		"dangling attrgroup": `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema">
		  <s:element name="A"><s:complexType><s:attributeGroup ref="Nope"/></s:complexType></s:element></s:schema>`,
		"recursive group": `<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema">
		  <s:element name="A"><s:complexType><s:group ref="G"/></s:complexType></s:element>
		  <s:group name="G"><s:sequence><s:group ref="G"/></s:sequence></s:group></s:schema>`,
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseListAndUnionTypes(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="R">
	    <xs:complexType><xs:sequence>
	      <xs:element name="Scores" type="ScoreList"/>
	      <xs:element name="Flexible" type="IntOrString"/>
	    </xs:sequence></xs:complexType>
	  </xs:element>
	  <xs:simpleType name="ScoreList">
	    <xs:list itemType="xs:integer"/>
	  </xs:simpleType>
	  <xs:simpleType name="IntOrString">
	    <xs:union memberTypes="xs:integer xs:string"/>
	  </xs:simpleType>
	</xs:schema>`
	root, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Find("R/Scores").Props.Type; got != "integer" {
		t.Fatalf("list type = %q", got)
	}
	if got := root.Find("R/Flexible").Props.Type; got != "integer" {
		t.Fatalf("union type = %q", got)
	}
}

// nestedSchema returns a schema whose elements nest depth deep: the
// schema, a global element and its complex type, then sequences around
// one leaf element.
func nestedSchema(depth int) string {
	n := depth - 4
	return `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="R"><xs:complexType>` +
		strings.Repeat("<xs:sequence>", n) + `<xs:element name="Leaf"/>` + strings.Repeat("</xs:sequence>", n) +
		`</xs:complexType></xs:element></xs:schema>`
}

// Nesting is bounded at maxDepth elements, counted while tokenizing, so a
// deep document fails before its recursion grows the stack.
func TestParseNestingBound(t *testing.T) {
	roots := checkAgainstReference(t, nestedSchema(maxDepth))
	if roots == nil || roots[0].Find("R/Leaf") == nil {
		t.Fatalf("%d-deep schema rejected or without its leaf", maxDepth)
	}
	for _, depth := range []int{maxDepth + 1, 150_000} {
		_, err := ParseString(nestedSchema(depth))
		if !errors.Is(err, errTooDeep) || !strings.HasPrefix(err.Error(), "xsd: parse: ") {
			t.Errorf("%d-deep schema: err = %v, want an xsd: parse: error for nesting", depth, err)
		}
	}
}

// The shapes the benchmark decks send parse to the reference's trees: the
// dataset corpus, and synthetic schemas of 20–1000 elements with their
// Uniform(0.3) variants. The benchmark's own output check cannot see a
// parser change: it computes its expected outputs with the same library.
func TestDeckShapesMatchReference(t *testing.T) {
	for _, name := range dataset.Names() {
		tree, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, Render(tree))
	}
	for i, elements := range []int{20, 60, 100, 250, 500, 1000} {
		base := synth.Generate(synth.Config{Seed: int64(i + 1), Elements: elements})
		variant, _ := synth.Derive(base, synth.Uniform(int64(i+101), 0.3))
		for _, tree := range []*xmltree.Node{base, variant} {
			if checkAgainstReference(t, Render(tree)) == nil {
				t.Errorf("%d-element synthetic schema rejected", elements)
			}
		}
	}
}

// One pass over the document: a 1000-element synthetic schema (107,741
// bytes) parses in about 5,650 allocations, against 23,183 through
// encoding/xml's reflective decode.
func TestParseAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	doc := Render(synth.Generate(synth.Config{Seed: 12, Elements: 1000}))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8000 {
		t.Errorf("1000-element parse = %.0f allocs/run, regression ceiling is 8000", allocs)
	}
}
