package dtd

import (
	"testing"

	"qmatch/internal/xmltree"
)

const poDTD = `
<!-- Purchase order DTD mirroring the paper's Figure 1 -->
<!ELEMENT PO (OrderNo, PurchaseInfo, PurchaseDate)>
<!ELEMENT OrderNo (#PCDATA)>
<!ELEMENT PurchaseInfo (BillingAddr, ShippingAddr, Lines)>
<!ELEMENT BillingAddr (#PCDATA)>
<!ELEMENT ShippingAddr (#PCDATA)>
<!ELEMENT Lines (Item+, Quantity, UnitOfMeasure?)>
<!ELEMENT Item (#PCDATA)>
<!ELEMENT Quantity (#PCDATA)>
<!ELEMENT UnitOfMeasure (#PCDATA)>
<!ELEMENT PurchaseDate (#PCDATA)>
<!ATTLIST PO id ID #REQUIRED currency CDATA #IMPLIED>
`

func TestParsePO(t *testing.T) {
	root, err := ParseString(poDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "PO" {
		t.Fatalf("root = %s", root.Label)
	}
	if got := root.Size(); got != 12 { // 10 elements + 2 attributes
		t.Fatalf("size = %d, want 12\n%s", got, root.Dump())
	}
	if got := root.MaxDepth(); got != 3 {
		t.Fatalf("depth = %d", got)
	}
	// Attributes come first, with DTD semantics mapped onto properties.
	id := root.Find("PO/id")
	if id == nil || !id.Props.IsAttribute || id.Props.Type != "ID" || id.Props.Use != "required" {
		t.Fatalf("id attr = %+v", id)
	}
	cur := root.Find("PO/currency")
	if cur == nil || cur.Props.MinOccurs != 0 || cur.Props.Type != "string" {
		t.Fatalf("currency attr = %+v", cur)
	}
	// Occurrence suffixes.
	item := root.Find("PO/PurchaseInfo/Lines/Item")
	if item.Props.MinOccurs != 1 || item.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("Item+ occurs = %+v", item.Props)
	}
	uom := root.Find("PO/PurchaseInfo/Lines/UnitOfMeasure")
	if uom.Props.MinOccurs != 0 || uom.Props.MaxOccurs != 1 {
		t.Fatalf("UnitOfMeasure? occurs = %+v", uom.Props)
	}
	// #PCDATA leaves are typed string.
	if got := root.Find("PO/OrderNo").Props.Type; got != "string" {
		t.Fatalf("OrderNo type = %q", got)
	}
}

func TestParseExplicitRoot(t *testing.T) {
	root, err := ParseString(poDTD, "Lines")
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "Lines" || len(root.Children) != 3 {
		t.Fatalf("root = %s/%d", root.Label, len(root.Children))
	}
}

func TestParseChoice(t *testing.T) {
	src := `
<!ELEMENT Contact (Name, (Phone | Email)*)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT Phone (#PCDATA)>
<!ELEMENT Email (#PCDATA)>
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Name", "Phone", "Email"}
	if len(root.Children) != 3 {
		t.Fatalf("children = %d\n%s", len(root.Children), root.Dump())
	}
	for i, w := range want {
		if root.Children[i].Label != w {
			t.Fatalf("child[%d] = %s", i, root.Children[i].Label)
		}
	}
	// Members of a repeated choice group: optional and unbounded.
	phone := root.Children[1]
	if phone.Props.MinOccurs != 0 || phone.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("choice member occurs = %+v", phone.Props)
	}
	// Name stays required (outside the choice).
	if root.Children[0].Props.MinOccurs != 1 {
		t.Fatalf("Name occurs = %+v", root.Children[0].Props)
	}
}

func TestParseNestedGroups(t *testing.T) {
	src := `
<!ELEMENT R ((A, B)+, C?)>
<!ELEMENT A (#PCDATA)>
<!ELEMENT B (#PCDATA)>
<!ELEMENT C (#PCDATA)>
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 3 {
		t.Fatalf("children = %d", len(root.Children))
	}
	a := root.Children[0]
	if a.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("(A,B)+ member occurs = %+v", a.Props)
	}
}

func TestParseMixedContent(t *testing.T) {
	src := `
<!ELEMENT Para (#PCDATA | Bold | Italic)*>
<!ELEMENT Bold (#PCDATA)>
<!ELEMENT Italic (#PCDATA)>
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 2 {
		t.Fatalf("mixed children = %d\n%s", len(root.Children), root.Dump())
	}
	if root.Children[0].Props.MinOccurs != 0 || root.Children[0].Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("mixed member occurs = %+v", root.Children[0].Props)
	}
}

func TestParseEmptyAndAny(t *testing.T) {
	src := `
<!ELEMENT R (Img, Blob)>
<!ELEMENT Img EMPTY>
<!ELEMENT Blob ANY>
<!ATTLIST Img src CDATA #REQUIRED>
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	img := root.Find("R/Img")
	if img == nil || len(img.Children) != 1 || img.Children[0].Label != "src" {
		t.Fatalf("EMPTY element with attribute: %+v", img)
	}
	blob := root.Find("R/Blob")
	if blob == nil || !blob.IsLeaf() {
		t.Fatalf("ANY element: %+v", blob)
	}
}

func TestParseRecursive(t *testing.T) {
	src := `
<!ELEMENT Part (Name, Part?)>
<!ELEMENT Name (#PCDATA)>
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	sub := root.Find("Part/Part")
	if sub == nil || !sub.IsLeaf() {
		t.Fatalf("recursive element not truncated: %v", sub)
	}
}

func TestParseAttlistVariants(t *testing.T) {
	src := `
<!ELEMENT R (#PCDATA)>
<!ATTLIST R
  kind (a | b | c) "a"
  ref IDREF #IMPLIED
  ver CDATA #FIXED "1.0">
`
	root, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	kind := root.Find("R/kind")
	if kind == nil || kind.Props.Type != "token" || kind.Props.Default != "a" {
		t.Fatalf("enum attr = %+v", kind)
	}
	ref := root.Find("R/ref")
	if ref == nil || ref.Props.Type != "IDREF" {
		t.Fatalf("IDREF attr = %+v", ref)
	}
	ver := root.Find("R/ver")
	if ver == nil || ver.Props.Fixed != "1.0" {
		t.Fatalf("fixed attr = %+v", ver)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string][2]string{
		"no declarations":  {"  <!-- just a comment -->", ""},
		"undeclared child": {"<!ELEMENT R (Missing)>", ""},
		"unknown root":     {poDTD, "NoSuch"},
		"entity":           {`<!ENTITY x "y">`, ""},
		"garbage":          {"hello", ""},
		"unterminated":     {"<!ELEMENT R (A", ""},
		"double decl":      {"<!ELEMENT R (#PCDATA)> <!ELEMENT R (#PCDATA)>", ""},
		"bad attr type":    {"<!ELEMENT R (#PCDATA)> <!ATTLIST R a BOGUS #IMPLIED>", ""},
		"mixed connector":  {"<!ELEMENT R (A, B | C)> <!ELEMENT A (#PCDATA)> <!ELEMENT B (#PCDATA)> <!ELEMENT C (#PCDATA)>", ""},
		"truncated attr":   {"<!ELEMENT R (#PCDATA)> <!ATTLIST R a>", ""},
	}
	for name, c := range cases {
		if _, err := ParseString(c[0], c[1]); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseReader(t *testing.T) {
	root, err := ParseString(poDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "PO" {
		t.Fatalf("root = %s", root.Label)
	}
}

// The DTD-parsed PO schema must be matchable against the XSD-modeled
// Purchase Order schema — the cross-format scenario the intro motivates.
func TestDTDToXSDMatching(t *testing.T) {
	root, err := ParseString(poDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if root.Find("PO/PurchaseInfo/Lines/Quantity") == nil {
		t.Fatal("expected path missing")
	}
}
