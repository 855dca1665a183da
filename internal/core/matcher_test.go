package core

import (
	"math"
	"testing"

	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// poSource builds the PO schema tree of Figure 1.
func poSource() *xmltree.Node {
	lines := xmltree.NewTree("Lines", xmltree.Elem(""),
		xmltree.New("Item", xmltree.Elem("string")),
		xmltree.New("Quantity", xmltree.Elem("integer")),
		xmltree.New("UnitOfMeasure", xmltree.Elem("string")),
	)
	info := xmltree.NewTree("PurchaseInfo", xmltree.Elem(""),
		xmltree.New("BillingAddr", xmltree.Elem("string")),
		xmltree.New("ShippingAddr", xmltree.Elem("string")),
		lines,
	)
	return xmltree.NewTree("PO", xmltree.Elem(""),
		xmltree.New("OrderNo", xmltree.Elem("integer")),
		info,
		xmltree.New("PurchaseDate", xmltree.Elem("date")),
	)
}

// poTarget builds the Purchase Order schema tree of Figure 2.
func poTarget() *xmltree.Node {
	items := xmltree.NewTree("Items", xmltree.Elem(""),
		xmltree.New("Item#", xmltree.Elem("string")),
		xmltree.New("Qty", xmltree.Elem("integer")),
		xmltree.New("UOM", xmltree.Elem("string")),
	)
	return xmltree.NewTree("PurchaseOrder", xmltree.Elem(""),
		xmltree.New("OrderNo", xmltree.Elem("integer")),
		xmltree.New("BillTo", xmltree.Elem("string")),
		xmltree.New("ShipTo", xmltree.Elem("string")),
		items,
		xmltree.New("Date", xmltree.Elem("date")),
	)
}

func defaultMatcher() *Matcher { return NewMatcher(nil) }

// TestPaperWalkthrough reproduces the worked example of paper §2.2 pair by
// pair.
func TestPaperWalkthrough(t *testing.T) {
	src, tgt := poSource(), poTarget()
	m := defaultMatcher()
	res := m.Tree(src, tgt)

	get := func(sp, tp string) QoM {
		s, tn := src.Find(sp), tgt.Find(tp)
		if s == nil || tn == nil {
			t.Fatalf("missing node %q or %q", sp, tp)
		}
		q, ok := res.Pair(s, tn)
		if !ok {
			t.Fatalf("no pair for %q vs %q", sp, tp)
		}
		return q
	}

	// "The match between the two leaf elements OrderNo ... is exact."
	orderNo := get("PO/OrderNo", "PurchaseOrder/OrderNo")
	if orderNo.Class != TotalExact || orderNo.Value != 1 {
		t.Errorf("OrderNo/OrderNo = %v, want total exact with QoM 1", orderNo)
	}

	// "The match between ... Quantity ... and Qty ... is said to be
	// relaxed as the label Quantity has a relaxed match with the label
	// Qty. Their set of properties match exactly."
	qty := get("PO/PurchaseInfo/Lines/Quantity", "PurchaseOrder/Items/Qty")
	if qty.LabelKind != lingo.Relaxed {
		t.Errorf("Quantity/Qty label kind = %v, want relaxed", qty.LabelKind)
	}
	if qty.PropertiesKind != lingo.Exact {
		t.Errorf("Quantity/Qty props kind = %v, want exact", qty.PropertiesKind)
	}
	if qty.Class != TotalRelaxed {
		t.Errorf("Quantity/Qty class = %v, want total relaxed", qty.Class)
	}

	// "the child Item of Lines has an exact match with the child Item#"
	item := get("PO/PurchaseInfo/Lines/Item", "PurchaseOrder/Items/Item#")
	if item.LabelKind != lingo.Exact {
		t.Errorf("Item/Item# label kind = %v, want exact", item.LabelKind)
	}

	// "the QoM of the match between Lines and Items is said to be total
	// relaxed along the children axis. The elements Lines and Items have
	// a relaxed match along the label and level axis (they are at
	// different levels in the schema tree) ... there is a total relaxed
	// match between the elements Lines and Items."
	lines := get("PO/PurchaseInfo/Lines", "PurchaseOrder/Items")
	if lines.LabelKind != lingo.Relaxed {
		t.Errorf("Lines/Items label kind = %v, want relaxed", lines.LabelKind)
	}
	if lines.LevelExact {
		t.Error("Lines/Items level should not match (levels 2 vs 1)")
	}
	if lines.Coverage != Total {
		t.Errorf("Lines/Items coverage = %v, want total", lines.Coverage)
	}
	if lines.ChildrenAllExact {
		t.Error("Lines/Items children should include relaxed matches")
	}
	if lines.Class != TotalRelaxed {
		t.Errorf("Lines/Items class = %v, want total relaxed", lines.Class)
	}

	// "the node PurchaseInfo has a total relaxed match with the node
	// Purchase Order" (source child vs target root, different depths).
	info := get("PO/PurchaseInfo", "PurchaseOrder")
	if info.Class != TotalRelaxed {
		t.Errorf("PurchaseInfo/PurchaseOrder class = %v, want total relaxed", info.Class)
	}
	if info.LevelExact {
		t.Error("PurchaseInfo/PurchaseOrder level should not match")
	}
	if info.Coverage != Total {
		t.Errorf("PurchaseInfo/PurchaseOrder coverage = %v, want total", info.Coverage)
	}

	// "the QoM for the match between the PO and Purchase root nodes is
	// said to be total relaxed", with no level match (height 3 vs 2) and
	// a relaxed label match (PO is the acronym of Purchase Order).
	root := res.Root
	if root.LabelKind != lingo.Relaxed {
		t.Errorf("root label kind = %v, want relaxed", root.LabelKind)
	}
	if root.LevelExact {
		t.Error("roots' level should not match (heights 3 vs 2)")
	}
	if root.Class != TotalRelaxed {
		t.Errorf("root class = %v, want total relaxed", root.Class)
	}
	if root.Value <= 0.5 || root.Value >= 1 {
		t.Errorf("root QoM = %v, want in (0.5, 1)", root.Value)
	}
}

func TestIdenticalTreesScoreOne(t *testing.T) {
	src := poSource()
	tgt := poSource()
	res := defaultMatcher().Tree(src, tgt)
	if res.Root.Class != TotalExact {
		t.Fatalf("self match class = %v", res.Root.Class)
	}
	if math.Abs(res.Root.Value-1) > 1e-9 {
		t.Fatalf("self match QoM = %v, want 1", res.Root.Value)
	}
	// Every aligned pair scores 1.
	for _, s := range src.Nodes() {
		tn := tgt.Find(s.Path())
		q, ok := res.Pair(s, tn)
		if !ok || math.Abs(q.Value-1) > 1e-9 {
			t.Fatalf("pair %s = %v", s.Path(), q)
		}
	}
}

func TestDisjointTreesScoreLow(t *testing.T) {
	// Library (Fig. 7) vs Human (Fig. 8) are linguistically disjoint but
	// structurally identical; with the hybrid the structural axes keep
	// the score mid-range (Fig. 9's averaging observation).
	library := xmltree.NewTree("Library", xmltree.Elem(""),
		xmltree.NewTree("Book", xmltree.Elem(""),
			xmltree.New("number", xmltree.Elem("integer")),
			xmltree.NewTree("Title", xmltree.Elem(""),
				xmltree.New("character", xmltree.Elem("string"))),
			xmltree.New("Writer", xmltree.Elem("string")),
		),
	)
	human := xmltree.NewTree("human", xmltree.Elem(""),
		xmltree.NewTree("body", xmltree.Elem(""),
			xmltree.New("hands", xmltree.Elem("integer")),
			xmltree.NewTree("head", xmltree.Elem(""),
				xmltree.New("man", xmltree.Elem("string"))),
			xmltree.New("legs", xmltree.Elem("string")),
		),
	)
	res := defaultMatcher().Tree(library, human)
	if res.Root.LabelKind != lingo.None {
		t.Fatalf("library/human label kind = %v", res.Root.LabelKind)
	}
	v := res.Root.Value
	if v < 0.3 || v > 0.85 {
		t.Fatalf("hybrid QoM for structure-only overlap = %v, want mid-range", v)
	}
}

func TestLeafVsInnerNode(t *testing.T) {
	leaf := xmltree.New("OrderNo", xmltree.Elem("integer"))
	inner := poSource()
	q := defaultMatcher().Tree(leaf, inner).Root
	if q.Leaf {
		t.Fatal("leaf-vs-inner treated as leaf pair")
	}
	if q.Children != 0 || q.Coverage != CoverageNone {
		t.Fatalf("leaf-vs-inner children axis = %v", q)
	}
}

func TestThresholdGatesChildren(t *testing.T) {
	src, tgt := poSource(), poTarget()
	strict := NewMatcher(nil)
	strict.Threshold = 0.99 // only perfect children count
	res := strict.Tree(src, tgt)
	// With a 0.99 threshold only OrderNo survives under the roots.
	if res.Root.Coverage != Partial {
		t.Fatalf("coverage with strict threshold = %v, want partial", res.Root.Coverage)
	}
	loose := NewMatcher(nil)
	loose.Threshold = 0
	res2 := loose.Tree(src, tgt)
	if res2.Root.Coverage != Total {
		t.Fatalf("coverage with zero threshold = %v, want total", res2.Root.Coverage)
	}
	if res2.Root.Value <= res.Root.Value {
		t.Fatal("looser threshold should not lower root QoM here")
	}
}

func TestWeightsNormalizedDuringMatch(t *testing.T) {
	src := poSource()
	m := NewMatcher(nil)
	m.Weights = AxisWeights{Label: 3, Properties: 2, Level: 1, Children: 4}
	res := m.Tree(src, poSource())
	if math.Abs(res.Root.Value-1) > 1e-9 {
		t.Fatalf("unnormalized weights leak: %v", res.Root.Value)
	}
}

func TestQoMBounds(t *testing.T) {
	src, tgt := poSource(), poTarget()
	res := defaultMatcher().Tree(src, tgt)
	for _, p := range res.Pairs() {
		q := p.QoM
		for name, v := range map[string]float64{
			"value": q.Value, "label": q.Label, "props": q.Properties,
			"level": q.Level, "children": q.Children,
			"Rw": q.SubtreeWeight, "Rs": q.CardinalityRatio,
		} {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("%s out of [0,1] for %s vs %s: %v",
					name, p.Source.Path(), p.Target.Path(), v)
			}
		}
	}
}

func TestPairsDeterministicAndComplete(t *testing.T) {
	src, tgt := poSource(), poTarget()
	res := defaultMatcher().Tree(src, tgt)
	pairs := res.Pairs()
	if len(pairs) != src.Size()*tgt.Size() {
		t.Fatalf("pairs = %d, want %d", len(pairs), src.Size()*tgt.Size())
	}
	again := defaultMatcher().Tree(src, tgt).Pairs()
	for i := range pairs {
		if pairs[i].Source != again[i].Source || pairs[i].Target != again[i].Target {
			t.Fatal("pair order not deterministic")
		}
		if pairs[i].QoM.Value != again[i].QoM.Value {
			t.Fatal("pair values not deterministic")
		}
	}
}

func TestBestForSource(t *testing.T) {
	src, tgt := poSource(), poTarget()
	res := defaultMatcher().Tree(src, tgt)
	s := src.Find("PO/PurchaseInfo/Lines/Quantity")
	best, q := res.BestForSource(s)
	if best == nil || best.Label != "Qty" {
		t.Fatalf("best for Quantity = %v (%v)", best, q)
	}
}

func TestTopPairs(t *testing.T) {
	src, tgt := poSource(), poTarget()
	res := defaultMatcher().Tree(src, tgt)
	top := res.TopPairs(3)
	if len(top) != 3 {
		t.Fatalf("top = %d", len(top))
	}
	if top[0].QoM.Value < top[1].QoM.Value || top[1].QoM.Value < top[2].QoM.Value {
		t.Fatal("top pairs not sorted")
	}
	if top[0].QoM.Value != 1 { // OrderNo/OrderNo
		t.Fatalf("best pair value = %v", top[0].QoM.Value)
	}
	all := res.TopPairs(1 << 20)
	if len(all) != src.Size()*tgt.Size() {
		t.Fatalf("TopPairs overflow clamp failed: %d", len(all))
	}
}

func TestMatchNodesSubtree(t *testing.T) {
	src, tgt := poSource(), poTarget()
	lines := src.Find("PO/PurchaseInfo/Lines")
	items := tgt.Find("PurchaseOrder/Items")
	q := defaultMatcher().Tree(lines, items).Root
	if q.Class != TotalRelaxed {
		t.Fatalf("subtree match class = %v", q.Class)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		NoMatch: "no match", PartialRelaxed: "partial relaxed",
		PartialExact: "partial exact", TotalRelaxed: "total relaxed",
		TotalExact: "total exact",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d) = %q, want %q", c, c.String(), s)
		}
	}
	cov := map[Coverage]string{CoverageNone: "none", Partial: "partial", Total: "total"}
	for c, s := range cov {
		if c.String() != s {
			t.Errorf("Coverage(%d) = %q, want %q", c, c.String(), s)
		}
	}
}

func TestQoMString(t *testing.T) {
	src, tgt := poSource(), poTarget()
	res := defaultMatcher().Tree(src, tgt)
	s := res.Root.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("QoM.String = %q", s)
	}
}

func TestWeights(t *testing.T) {
	d := DefaultWeights()
	if !d.Valid() {
		t.Fatal("default weights invalid")
	}
	if d.Label != 0.3 || d.Properties != 0.2 || d.Level != 0.1 || d.Children != 0.4 {
		t.Fatalf("default weights = %+v", d)
	}
	bad := AxisWeights{Label: -1, Properties: 1, Level: 0.5, Children: 0.5}
	if bad.Valid() {
		t.Fatal("negative weight accepted")
	}
	n := AxisWeights{Label: 2, Properties: 2, Level: 2, Children: 2}.Normalized()
	if !n.Valid() {
		t.Fatalf("normalized invalid: %+v", n)
	}
	z := AxisWeights{}.Normalized()
	if z != DefaultWeights() {
		t.Fatalf("zero weights normalized = %+v", z)
	}
	if DefaultWeights().String() != "WL=0.30 WP=0.20 WH=0.10 WC=0.40" {
		t.Fatalf("weights string = %q", DefaultWeights().String())
	}
}
