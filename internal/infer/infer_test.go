package infer

import (
	"testing"

	"qmatch/internal/xmltree"
)

const orderXML = `<?xml version="1.0"?>
<Order id="17" priority="high">
  <OrderNo>12345</OrderNo>
  <Customer>
    <Name>Ada</Name>
    <Email>ada@example.com</Email>
  </Customer>
  <Line sku="A1"><Qty>2</Qty><Price>9.99</Price></Line>
  <Line sku="B2"><Qty>1</Qty><Price>120.00</Price><Gift>true</Gift></Line>
  <Shipped>2005-04-05</Shipped>
</Order>`

func TestInferStructure(t *testing.T) {
	root, err := InferString(orderXML)
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "Order" {
		t.Fatalf("root = %s", root.Label)
	}
	// Repeated <Line> elements merge into one unbounded declaration.
	lines := root.FindLabel("Line")
	if len(lines) != 1 {
		t.Fatalf("Line declarations = %d\n%s", len(lines), root.Dump())
	}
	if lines[0].Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("Line occurs = %+v", lines[0].Props)
	}
	// <Gift> appears in only one of two Lines → optional.
	gift := root.Find("Order/Line/Gift")
	if gift == nil || gift.Props.MinOccurs != 0 {
		t.Fatalf("Gift = %+v", gift)
	}
	// Qty appears in every Line → required.
	qty := root.Find("Order/Line/Qty")
	if qty == nil || qty.Props.MinOccurs != 1 {
		t.Fatalf("Qty = %+v", qty)
	}
}

func TestInferTypes(t *testing.T) {
	root, err := InferString(orderXML)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"Order/OrderNo":       "integer",
		"Order/Line/Qty":      "integer",
		"Order/Line/Price":    "decimal",
		"Order/Line/Gift":     "boolean",
		"Order/Shipped":       "date",
		"Order/Customer/Name": "string",
	}
	for path, want := range cases {
		n := root.Find(path)
		if n == nil {
			t.Fatalf("path %s missing\n%s", path, root.Dump())
		}
		if n.Props.Type != want {
			t.Errorf("%s type = %q, want %q", path, n.Props.Type, want)
		}
	}
}

func TestInferAttributes(t *testing.T) {
	root, err := InferString(orderXML)
	if err != nil {
		t.Fatal(err)
	}
	id := root.Find("Order/id")
	if id == nil || !id.Props.IsAttribute || id.Props.Type != "integer" || id.Props.Use != "required" {
		t.Fatalf("id = %+v", id)
	}
	sku := root.Find("Order/Line/sku")
	if sku == nil || sku.Props.Use != "required" { // on both Lines
		t.Fatalf("sku = %+v", sku)
	}
}

func TestInferOptionalAttribute(t *testing.T) {
	root, err := InferString(`<R><E a="1"/><E/></R>`)
	if err != nil {
		t.Fatal(err)
	}
	a := root.Find("R/E/a")
	if a == nil || a.Props.MinOccurs != 0 || a.Props.Use != "optional" {
		t.Fatalf("a = %+v", a)
	}
}

func TestInferDateTime(t *testing.T) {
	root, err := InferString(`<R><T>2005-04-05T12:00:00Z</T></R>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Find("R/T").Props.Type; got != "dateTime" {
		t.Fatalf("type = %q", got)
	}
}

func TestInferMixedTypesFallBack(t *testing.T) {
	root, err := InferString(`<R><V>12</V><V>abc</V></R>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Find("R/V").Props.Type; got != "string" {
		t.Fatalf("mixed values type = %q", got)
	}
}

func TestInferIntWidensToDecimal(t *testing.T) {
	root, err := InferString(`<R><V>12</V><V>3.5</V></R>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Find("R/V").Props.Type; got != "decimal" {
		t.Fatalf("widened type = %q", got)
	}
}

func TestInferEmptyLeaf(t *testing.T) {
	root, err := InferString(`<R><E/></R>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Find("R/E").Props.Type; got != "string" {
		t.Fatalf("empty leaf type = %q", got)
	}
}

func TestInferLateSibling(t *testing.T) {
	// A child name first seen in a later instance must still be optional.
	root, err := InferString(`<R><E><A>1</A></E><E><A>2</A><B>x</B></E></R>`)
	if err != nil {
		t.Fatal(err)
	}
	b := root.Find("R/E/B")
	if b == nil || b.Props.MinOccurs != 0 {
		t.Fatalf("late sibling = %+v", b)
	}
	a := root.Find("R/E/A")
	if a == nil || a.Props.MinOccurs != 1 {
		t.Fatalf("common sibling = %+v", a)
	}
}

func TestInferErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"malformed":      "<R><unclosed></R>",
		"multiple roots": "<A/><B/>",
		"text only":      "just text",
	}
	for name, src := range cases {
		if _, err := InferString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestInferReader(t *testing.T) {
	root, err := InferString(`<R><A>x</A></R>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Size() != 2 {
		t.Fatalf("size = %d", root.Size())
	}
}

// Inferred schemas are matchable: an instance of the paper's PO document
// matched against the Purchase Order schema finds the leaf pairs.
func TestInferredSchemaIsMatchable(t *testing.T) {
	doc := `<PO>
	  <OrderNo>1</OrderNo>
	  <PurchaseInfo>
	    <BillingAddr>x</BillingAddr>
	    <ShippingAddr>y</ShippingAddr>
	    <Lines><Item>i</Item><Quantity>2</Quantity><UnitOfMeasure>kg</UnitOfMeasure></Lines>
	  </PurchaseInfo>
	  <PurchaseDate>2005-04-05</PurchaseDate>
	</PO>`
	root, err := InferString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if root.Size() != 10 {
		t.Fatalf("size = %d\n%s", root.Size(), root.Dump())
	}
	if got := root.Find("PO/PurchaseInfo/Lines/Quantity").Props.Type; got != "integer" {
		t.Fatalf("Quantity type = %q", got)
	}
	if got := root.Find("PO/PurchaseDate").Props.Type; got != "date" {
		t.Fatalf("PurchaseDate type = %q", got)
	}
}
