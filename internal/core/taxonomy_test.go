package core

import (
	"testing"

	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// TestTaxonomyMatrix crafts a pair for every class of the XML match
// taxonomy (paper §2.2) and asserts the classifier reaches it.
func TestTaxonomyMatrix(t *testing.T) {
	m := defaultMatcher()

	classify := func(s, tgt *xmltree.Node) Class {
		return m.Tree(s, tgt).Root.Class
	}

	t.Run("leaf total exact", func(t *testing.T) {
		a := xmltree.New("OrderNo", xmltree.Elem("integer"))
		b := xmltree.New("OrderNo", xmltree.Elem("integer"))
		if got := classify(a, b); got != TotalExact {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("leaf relaxed via label", func(t *testing.T) {
		a := xmltree.New("Quantity", xmltree.Elem("integer"))
		b := xmltree.New("Qty", xmltree.Elem("integer"))
		if got := classify(a, b); got != TotalRelaxed {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("leaf relaxed via properties", func(t *testing.T) {
		a := xmltree.New("OrderNo", xmltree.Elem("int"))
		b := xmltree.New("OrderNo", xmltree.Elem("decimal"))
		if got := classify(a, b); got != TotalRelaxed {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("leaf no match", func(t *testing.T) {
		a := xmltree.New("Giraffe", xmltree.Elem("string"))
		b := xmltree.New("Spanner", xmltree.Elem("date"))
		if got := classify(a, b); got != NoMatch {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("inner total exact", func(t *testing.T) {
		build := func() *xmltree.Node {
			return xmltree.NewTree("Order", xmltree.Elem(""),
				xmltree.New("OrderNo", xmltree.Elem("integer")),
				xmltree.New("Total", xmltree.Elem("decimal")),
			)
		}
		if got := classify(build(), build()); got != TotalExact {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("inner total relaxed", func(t *testing.T) {
		a := xmltree.NewTree("Order", xmltree.Elem(""),
			xmltree.New("Quantity", xmltree.Elem("integer")),
		)
		b := xmltree.NewTree("Order", xmltree.Elem(""),
			xmltree.New("Qty", xmltree.Elem("integer")),
		)
		if got := classify(a, b); got != TotalRelaxed {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("inner partial exact", func(t *testing.T) {
		// All atomic axes exact; one child matches exactly, the other
		// has no counterpart → partial coverage with all-exact matches.
		a := xmltree.NewTree("Order", xmltree.Elem(""),
			xmltree.New("OrderNo", xmltree.Elem("integer")),
			xmltree.New("Giraffe", xmltree.Elem("gMonth")),
		)
		b := xmltree.NewTree("Order", xmltree.Elem(""),
			xmltree.New("OrderNo", xmltree.Elem("integer")),
		)
		if got := classify(a, b); got != PartialExact {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("inner partial relaxed", func(t *testing.T) {
		a := xmltree.NewTree("Order", xmltree.Elem(""),
			xmltree.New("Quantity", xmltree.Elem("integer")),
			xmltree.New("Giraffe", xmltree.Elem("gMonth")),
		)
		b := xmltree.NewTree("PurchaseOrder", xmltree.Elem(""),
			xmltree.New("Qty", xmltree.Elem("integer")),
		)
		if got := classify(a, b); got != PartialRelaxed {
			t.Fatalf("class = %v", got)
		}
	})

	t.Run("inner no match", func(t *testing.T) {
		a := xmltree.NewTree("Giraffe", xmltree.Elem(""),
			xmltree.New("Hoof", xmltree.Elem("gDay")),
		)
		b := xmltree.NewTree("Spanner", xmltree.Elem(""),
			xmltree.New("Thread", xmltree.Elem("hexBinary")),
		)
		q := m.Tree(a, b).Root
		// No semantic evidence anywhere: coverage must be none and the
		// class NoMatch or PartialRelaxed (the properties axis keeps an
		// order-equality remnant). The *value* stays mid-range — that
		// is the deliberate structure-only propagation of the children
		// axis (Fig. 9) — but below the default selection threshold,
		// so the pair is never reported as a correspondence.
		if q.Coverage != CoverageNone {
			t.Fatalf("coverage = %v", q.Coverage)
		}
		if q.Class != NoMatch && q.Class != PartialRelaxed {
			t.Fatalf("class = %v", q.Class)
		}
		if q.Value >= NewHybrid(nil).SelectionThreshold {
			t.Fatalf("value = %v, want below the selection threshold", q.Value)
		}
	})
}

// TestClassifyKindsRecorded checks that axis kinds drive classification as
// the paper defines: a relaxed label downgrades an otherwise exact match.
func TestClassifyKindsRecorded(t *testing.T) {
	m := defaultMatcher()
	a := xmltree.NewTree("Lines", xmltree.Elem(""),
		xmltree.New("Item", xmltree.Elem("string")),
	)
	b := xmltree.NewTree("Items", xmltree.Elem(""), // related → relaxed label
		xmltree.New("Item", xmltree.Elem("string")),
	)
	q := m.Tree(a, b).Root
	if q.LabelKind != lingo.Relaxed {
		t.Fatalf("label kind = %v", q.LabelKind)
	}
	if q.Class != TotalRelaxed {
		t.Fatalf("class = %v", q.Class)
	}
	if !q.ChildrenAllExact {
		t.Fatal("children should be all-exact")
	}
}
