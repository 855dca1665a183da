package lingo

import (
	"strings"
	"testing"
)

func TestThesaurusRelate(t *testing.T) {
	th := NewThesaurus()
	th.AddSynonym("writer", "author")
	th.AddHypernym("date", "purchase date")
	th.AddAcronym("uom", "unit of measure")

	cases := []struct {
		a, b string
		want Relation
	}{
		{"writer", "author", RelSynonym},
		{"author", "writer", RelSynonym}, // symmetric
		{"Writer", "AUTHOR", RelSynonym}, // normalized
		{"date", "purchase date", RelHypernym},
		{"purchase date", "date", RelHyponym},
		{"PurchaseDate", "Date", RelHyponym}, // camelCase normalizes
		{"uom", "unit of measure", RelAcronym},
		{"UnitOfMeasure", "UOM", RelAcronym},
		{"writer", "writer", RelSynonym}, // identical term
		{"writer", "date", RelNone},
		{"", "writer", RelNone},
	}
	for _, c := range cases {
		if got := th.Relate(c.a, c.b); got != c.want {
			t.Errorf("Relate(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationString(t *testing.T) {
	want := map[Relation]string{
		RelNone: "none", RelSynonym: "synonym", RelHypernym: "hypernym",
		RelHyponym: "hyponym", RelAcronym: "acronym",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Relation(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestAddSynonymGroup(t *testing.T) {
	th := NewThesaurus()
	th.AddSynonymGroup("a", "b", "c")
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if th.Relate(pair[0], pair[1]) != RelSynonym {
			t.Errorf("group pair %v not synonyms", pair)
		}
	}
}

func TestAddIgnoresDegenerate(t *testing.T) {
	th := NewThesaurus()
	th.AddSynonym("", "x")
	th.AddSynonym("x", "x")
	th.AddAcronym("", "x")
	th.AddHypernym("", "x")
	th.AddHypernym("x", "x")
	if th.Size() != 0 {
		t.Fatalf("degenerate adds stored: size=%d", th.Size())
	}
}

func TestSynonymsAndSize(t *testing.T) {
	th := NewThesaurus()
	th.AddSynonym("writer", "author")
	if th.Size() != 2 { // two directed edges
		t.Fatalf("Size = %d", th.Size())
	}
}

func TestMerge(t *testing.T) {
	a := NewThesaurus()
	a.AddSynonym("x", "y")
	b := NewThesaurus()
	b.AddHypernym("animal", "dog")
	b.AddAcronym("id", "identifier")
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.Relate("x", "y") != RelSynonym {
		t.Fatal("lost own relation")
	}
	if a.Relate("animal", "dog") != RelHypernym {
		t.Fatal("hypernym not merged")
	}
	if a.Relate("id", "identifier") != RelAcronym {
		t.Fatal("acronym not merged")
	}
}

func TestDefaultThesaurusPaperRelations(t *testing.T) {
	th := Default()
	// The relations the paper cites explicitly: Item↔Item# and
	// Writer↔Author exact; Lines↔Items, Quantity↔Qty, UnitOfMeasure↔UOM,
	// BillingAddr↔BillTo, ShippingAddr↔ShipTo relaxed.
	exactPairs := [][2]string{
		{"Item", "Item#"},
		{"Writer", "Author"},
		{"OrderNo", "OrderNumber"},
	}
	for _, p := range exactPairs {
		if got := th.Relate(p[0], p[1]); got != RelSynonym {
			t.Errorf("Default().Relate(%q,%q) = %v, want synonym", p[0], p[1], got)
		}
	}
	relaxedPairs := [][2]string{
		{"Lines", "Items"},
		{"Quantity", "Qty"},
		{"UnitOfMeasure", "UOM"},
		{"BillingAddr", "BillTo"},
		{"ShippingAddr", "ShipTo"},
		{"PO", "PurchaseOrder"},
		{"PurchaseInfo", "PurchaseOrder"},
	}
	for _, p := range relaxedPairs {
		switch th.Relate(p[0], p[1]) {
		case RelNone:
			t.Errorf("Default().Relate(%q,%q) = none, want a relaxed relation", p[0], p[1])
		case RelSynonym:
			t.Errorf("Default().Relate(%q,%q) = synonym, want a relaxed relation", p[0], p[1])
		}
	}
	if got := th.Relate("Date", "PurchaseDate"); got != RelHypernym {
		t.Errorf("Date vs PurchaseDate = %v, want hypernym", got)
	}
	if got := th.Relate("PurchaseDate", "Date"); got != RelHyponym {
		t.Errorf("PurchaseDate vs Date = %v, want hyponym", got)
	}
	// Library (Fig. 7) vs Human (Fig. 8) vocabularies must stay unrelated.
	for _, pair := range [][2]string{
		{"Library", "human"}, {"Book", "body"}, {"Title", "man"},
		{"Writer", "head"}, {"number", "hands"},
	} {
		if got := th.Relate(pair[0], pair[1]); got != RelNone {
			t.Errorf("disjoint pair %v related: %v", pair, got)
		}
	}
	// Default() is memoized: same instance.
	if Default() != th {
		t.Fatal("Default() not memoized")
	}
}

// Every end of every relation edge is a known term, however the edge got
// there: the kernel skips the thesaurus unless both terms of a pair are
// known, which is exact only if this holds (see KnownNormalized).
func TestEdgeEndsKnown(t *testing.T) {
	loaded, err := LoadThesaurus(strings.NewReader(
		"synonym\twriter\tauthor\nrelated\tlines\titems\nacronym\tuom\tunit of measure\nhypernym\tvehicle\ttruck\n"))
	if err != nil {
		t.Fatal(err)
	}
	merged := NewThesaurus()
	merged.Merge(loaded)
	for name, th := range map[string]*Thesaurus{"Default": Default(), "LoadThesaurus": loaded, "Merge": merged} {
		for _, m := range []map[string]map[string]bool{th.syn, th.hyper, th.acro, th.rel} {
			for a, ends := range m {
				for b := range ends {
					for _, n := range []string{a, b} {
						if !th.KnownNormalized(n) {
							t.Errorf("%s: %q ends the edge %q → %q but is not KnownNormalized", name, n, a, b)
						}
					}
				}
			}
		}
	}
	// "ship date" is only ever a hypernym specific, and "trucks" a plural
	// of one.
	if !Default().KnownNormalized("shipdate") {
		t.Error(`Default().KnownNormalized("shipdate") = false`)
	}
	if !loaded.KnownNormalized("trucks") {
		t.Error(`KnownNormalized("trucks") = false with the edge vehicle → truck`)
	}
}
