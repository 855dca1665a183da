package lingo

import (
	"testing"
	"testing/quick"
)

func matcher() *NameMatcher { return NewNameMatcher(Default()) }

func TestNameMatchExact(t *testing.T) {
	m := matcher()
	cases := [][2]string{
		{"OrderNo", "OrderNo"},
		{"OrderNo", "order_no"}, // separator-insensitive
		{"Writer", "Author"},    // synonym
		{"Item", "Item#"},       // synonym (paper: Item/Item# is exact)
	}
	for _, c := range cases {
		s, k := m.Match(c[0], c[1])
		if k != Exact || s != 1 {
			t.Errorf("Match(%q,%q) = (%v,%v), want (1,exact)", c[0], c[1], s, k)
		}
	}
}

func TestNameMatchRelaxed(t *testing.T) {
	m := matcher()
	cases := [][2]string{
		{"PurchaseDate", "Date"},           // hyponym
		{"Date", "PurchaseDate"},           // hypernym
		{"ProductDescription", "ProdDesc"}, // abbreviation tokens
		{"CustomerName", "CustName"},       // abbreviation token
	}
	for _, c := range cases {
		s, k := m.Match(c[0], c[1])
		if k != Relaxed {
			t.Errorf("Match(%q,%q) = (%v,%v), want relaxed", c[0], c[1], s, k)
		}
		if s <= 0 || s >= 1 {
			t.Errorf("Match(%q,%q) score = %v, want in (0,1)", c[0], c[1], s)
		}
	}
}

func TestNameMatchPaperPairs(t *testing.T) {
	// §2.1: "Unit Of Measure ... has an acronym match with ... UOM —
	// denoting a relaxed match along the label axis". Our default
	// thesaurus also lists them as synonyms; with a thesaurus that only
	// knows the acronym, the pair must classify as relaxed.
	th := NewThesaurus()
	th.AddAcronym("uom", "unit of measure")
	m := NewNameMatcher(th)
	s, k := m.Match("Unit Of Measure", "UOM")
	if k != Relaxed || s != RelaxedScore {
		t.Fatalf("UOM acronym = (%v,%v), want (%v,relaxed)", s, k, RelaxedScore)
	}
	// Quantity vs Qty via pure abbreviation detection (empty thesaurus).
	empty := NewNameMatcher(nil)
	s, k = empty.Match("Quantity", "Qty")
	if k != Relaxed {
		t.Fatalf("Quantity/Qty = (%v,%v), want relaxed", s, k)
	}
}

func TestNameMatchNone(t *testing.T) {
	m := matcher()
	cases := [][2]string{
		{"Library", "human"},
		{"Book", "legs"},
		{"Writer", "head"},
		{"", "x"},
		{"x", ""},
	}
	for _, c := range cases {
		if s, k := m.Match(c[0], c[1]); k != None {
			t.Errorf("Match(%q,%q) = (%v,%v), want none", c[0], c[1], s, k)
		}
	}
}

func TestNameMatchTokenAggregation(t *testing.T) {
	m := matcher()
	// "PurchaseOrderNumber" vs "OrderNumber": shared tokens dominate.
	s, k := m.Match("PurchaseOrderNumber", "OrderNumber")
	if k == None || s < 0.5 {
		t.Fatalf("token aggregation = (%v,%v)", s, k)
	}
	// Asymmetric coverage still symmetric in score.
	s2, _ := m.Match("OrderNumber", "PurchaseOrderNumber")
	if s != s2 {
		t.Fatalf("asymmetric scores: %v vs %v", s, s2)
	}
}

func TestNameMatchScoreHelper(t *testing.T) {
	m := matcher()
	if m.Score("OrderNo", "OrderNo") != 1 {
		t.Fatal("Score of equal labels != 1")
	}
}

func TestNewNameMatcherNilThesaurus(t *testing.T) {
	m := NewNameMatcher(nil)
	if m.Thesaurus == nil {
		t.Fatal("nil thesaurus not replaced")
	}
	// Equal strings still exact without a thesaurus.
	if s, k := m.Match("abc", "ABC"); k != Exact || s != 1 {
		t.Fatalf("case-insensitive equality = (%v,%v)", s, k)
	}
}

// Properties: score in [0,1]; symmetric; kind consistent with score
// thresholds (Exact implies score 1 under the default tuning).
func TestNameMatchProperties(t *testing.T) {
	m := matcher()
	clip := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	prop := func(a, b string) bool {
		a, b = clip(a), clip(b)
		s1, k1 := m.Match(a, b)
		s2, k2 := m.Match(b, a)
		if s1 < 0 || s1 > 1 {
			return false
		}
		if s1 != s2 || k1 != k2 {
			return false
		}
		if k1 == Exact && s1 != 1 {
			return false
		}
		if k1 == None && s1 >= MatchThreshold && s1 >= StringSimFloor {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if None.String() != "none" || Relaxed.String() != "relaxed" || Exact.String() != "exact" {
		t.Fatal("Kind.String mismatch")
	}
}
