package qmatch_test

import (
	"fmt"
	"strings"

	"qmatch"
)

const exampleSource = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType><xs:sequence>
      <xs:element name="OrderNo" type="xs:integer"/>
      <xs:element name="Quantity" type="xs:integer"/>
      <xs:element name="PurchaseDate" type="xs:date"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`

const exampleTarget = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder">
    <xs:complexType><xs:sequence>
      <xs:element name="OrderNo" type="xs:integer"/>
      <xs:element name="Qty" type="xs:integer"/>
      <xs:element name="Date" type="xs:date"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`

func ExampleMatch() {
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	report := qmatch.Match(src, tgt)
	for _, c := range report.Correspondences {
		fmt.Println(c)
	}
	// Output:
	// PO/OrderNo -> PurchaseOrder/OrderNo (1.00)
	// PO/PurchaseDate -> PurchaseOrder/Date (0.96)
	// PO/Quantity -> PurchaseOrder/Qty (0.96)
	// PO -> PurchaseOrder (0.95)
}

func ExampleQoM() {
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	q := qmatch.QoM(src, tgt)
	fmt.Println(q.Class)
	// Output:
	// total relaxed
}

func ExampleMatch_algorithms() {
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	for _, alg := range []qmatch.Algorithm{qmatch.Linguistic, qmatch.Structural, qmatch.Hybrid} {
		r := qmatch.Match(src, tgt, qmatch.WithAlgorithm(alg))
		fmt.Printf("%s found %d correspondences\n", r.Algorithm, len(r.Correspondences))
	}
	// Output:
	// linguistic found 4 correspondences
	// structural found 4 correspondences
	// hybrid found 4 correspondences
}

func ExampleEvaluate() {
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	report := qmatch.Match(src, tgt)
	gold := [][2]string{
		{"PO", "PurchaseOrder"},
		{"PO/OrderNo", "PurchaseOrder/OrderNo"},
		{"PO/Quantity", "PurchaseOrder/Qty"},
		{"PO/PurchaseDate", "PurchaseOrder/Date"},
	}
	e := qmatch.Evaluate(report, gold)
	fmt.Printf("precision %.2f recall %.2f overall %.2f\n", e.Precision, e.Recall, e.Overall)
	// Output:
	// precision 1.00 recall 1.00 overall 1.00
}

func ExampleWithThesaurus() {
	src, _ := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Gadget" type="xs:string"/></xs:schema>`)
	tgt, _ := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Appliance" type="xs:string"/></xs:schema>`)
	th := qmatch.NewThesaurus()
	th.AddSynonym("gadget", "appliance")
	report := qmatch.Match(src, tgt, qmatch.WithThesaurus(th))
	fmt.Println(report.Correspondences[0])
	// Output:
	// Gadget -> Appliance (1.00)
}

func ExampleValidate() {
	schema, _ := qmatch.ParseSchemaString(exampleSource)
	violations, _ := qmatch.ValidateString(schema, `<PO>
	  <OrderNo>not-a-number</OrderNo>
	  <Quantity>2</Quantity>
	  <PurchaseDate>2005-04-05</PurchaseDate>
	</PO>`)
	for _, v := range violations {
		fmt.Println(v)
	}
	// Output:
	// PO/OrderNo: type: value "not-a-number" is not a valid integer
}

func ExampleNewTranslator() {
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	report := qmatch.Match(src, tgt)
	tr, _ := qmatch.NewTranslator(src, tgt, report)
	out, _ := tr.TranslateString(`<PO>
	  <OrderNo>7</OrderNo><Quantity>3</Quantity><PurchaseDate>2005-04-05</PurchaseDate>
	</PO>`)
	fmt.Println(strings.Contains(out, "<Qty>3</Qty>"))
	// Output:
	// true
}

func ExampleEngine_Rematch() {
	// An Engine built WithRematchState retains the pair table of each
	// compiled-path match, so when one schema evolves the new pair is
	// re-matched incrementally: unchanged subtrees are copied, only
	// dirty nodes are rescored.
	eng, _ := qmatch.NewEngine(qmatch.WithRematchState())
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	csrc, _ := eng.Compile(src)
	ctgt, _ := eng.Compile(tgt)
	prev := eng.MatchCompiled(csrc, ctgt)

	// The target evolves: one leaf is renamed, the rest is untouched.
	evolved, _ := qmatch.ParseSchemaString(
		strings.Replace(exampleTarget, `name="Qty"`, `name="Quantity"`, 1))
	cevolved, _ := eng.Compile(evolved)

	rep, _ := eng.Rematch(prev, ctgt, cevolved)
	st := rep.Rematch
	fmt.Printf("%s side: %d dirty, %d clean nodes\n", st.Side, st.DirtyNodes, st.CleanNodes)
	fmt.Printf("cells: %d copied, %d rescored\n", st.CopiedCells, st.RescoredCells)
	for _, c := range rep.Correspondences {
		fmt.Println(c)
	}
	// Output:
	// target side: 2 dirty, 2 clean nodes
	// cells: 8 copied, 8 rescored
	// PO/OrderNo -> PurchaseOrder/OrderNo (1.00)
	// PO/Quantity -> PurchaseOrder/Quantity (1.00)
	// PO/PurchaseDate -> PurchaseOrder/Date (0.96)
	// PO -> PurchaseOrder (0.95)
}

func ExampleEngine_With() {
	// A service builds one Engine and derives a variant per task. The
	// variant shares the base's thesaurus, warm name matchers and
	// metrics registry, so its matches count in the base's metrics.
	base, _ := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	strict, _ := base.With(qmatch.WithSelectionThreshold(0.97))
	src, _ := qmatch.ParseSchemaString(exampleSource)
	tgt, _ := qmatch.ParseSchemaString(exampleTarget)
	fmt.Println(len(base.Match(src, tgt).Correspondences), "correspondences at the default threshold")
	for _, c := range strict.Match(src, tgt).Correspondences {
		fmt.Println(c)
	}
	matches, _ := base.MetricValue(qmatch.MetricMatches)
	fmt.Println(matches, "matches counted")

	// The thesaurus is shared, so a variant cannot change it.
	_, err := base.With(qmatch.WithoutBuiltinThesaurus())
	fmt.Println(err != nil)
	// Output:
	// 4 correspondences at the default threshold
	// PO/OrderNo -> PurchaseOrder/OrderNo (1.00)
	// 2 matches counted
	// true
}

func ExampleInferSchemaString() {
	s, _ := qmatch.InferSchemaString(`<Order><Id>7</Id><Total>9.99</Total></Order>`)
	fmt.Println(s.Dump())
	// Output:
	// Order
	//   Id [integer]
	//   Total [decimal]
}
