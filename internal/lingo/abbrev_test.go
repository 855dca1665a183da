package lingo

import (
	"math/rand"
	"strings"
	"testing"
)

func TestIsAcronymOf(t *testing.T) {
	cases := []struct {
		short, long string
		want        bool
	}{
		{"UOM", "Unit Of Measure", true},
		{"uom", "UnitOfMeasure", true},
		{"PO", "Purchase Order", true},
		{"POX", "Purchase Order", false},
		{"P", "Purchase", false}, // single token: no acronym
		{"PD", "PurchaseDate", true},
		{"DOB", "date of birth", true},
		{"UOM", "Measure Of Unit", false}, // order matters
	}
	for _, c := range cases {
		if got := IsAcronymOf(c.short, c.long); got != c.want {
			t.Errorf("IsAcronymOf(%q,%q) = %v, want %v", c.short, c.long, got, c.want)
		}
	}
}

func TestIsAbbreviationOf(t *testing.T) {
	cases := []struct {
		short, long string
		want        bool
	}{
		{"qty", "quantity", true},
		{"Qty", "Quantity", true},
		{"addr", "address", true},
		{"amt", "amount", true},
		{"no", "number", true},
		{"num", "number", true},
		{"desc", "description", true},
		{"bill", "billing", true},  // prefix
		{"ship", "shipping", true}, // prefix
		{"cat", "dog", false},
		{"quantity", "qty", false}, // wrong direction
		{"q", "quantity", false},   // too short
		{"xyz", "quantity", false}, // first letter differs
		{"qy", "quantity", true},   // subsequence, covers 1/4 < 1/3? len(qy)=2, 3*2=6 < 8 → prefix? no → false
	}
	// fix expectation for "qy": 3*2=6 < len("quantity")=8, not prefix → false
	cases[len(cases)-1].want = false
	for _, c := range cases {
		if got := IsAbbreviationOf(c.short, c.long); got != c.want {
			t.Errorf("IsAbbreviationOf(%q,%q) = %v, want %v", c.short, c.long, got, c.want)
		}
	}
}

// consonantSkeleton is the reference hasSkeletonPrefix walks in place: it
// removes interior vowels from a word, keeping the first character:
// "quantity" → "qntty", "order" → "ordr".
func consonantSkeleton(w string) string {
	if w == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte(w[0])
	for i := 1; i < len(w); i++ {
		switch w[i] {
		case 'a', 'e', 'i', 'o', 'u':
		default:
			b.WriteByte(w[i])
		}
	}
	return b.String()
}

var skeletonCases = []struct{ in, want string }{
	{"quantity", "qntty"},
	{"order", "ordr"},
	{"", ""},
	{"a", "a"},
	{"aeiou", "a"},
}

func TestConsonantSkeleton(t *testing.T) {
	for _, c := range skeletonCases {
		if got := consonantSkeleton(c.in); got != c.want {
			t.Errorf("consonantSkeleton(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// hasSkeletonPrefix must agree with building the skeleton and testing the
// prefix: on every prefix of each word and of its skeleton, each with one
// byte appended, and on random strings over a vowel-heavy alphabet.
func TestHasSkeletonPrefix(t *testing.T) {
	check := func(w, s string) {
		t.Helper()
		if got, want := hasSkeletonPrefix(w, s), strings.HasPrefix(consonantSkeleton(w), s); got != want {
			t.Errorf("hasSkeletonPrefix(%q, %q) = %v, want %v", w, s, got, want)
		}
	}
	for _, c := range skeletonCases {
		for _, full := range []string{c.in, c.want} {
			for n := 0; n <= len(full); n++ {
				check(c.in, full[:n])
				check(c.in, full[:n]+"t")
				check(c.in, full[:n]+"e")
			}
		}
	}
	const alphabet = "aeioubcdqty"
	rng := rand.New(rand.NewSource(1))
	word := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		w := word(10)
		check(w, word(5))
		check(w, consonantSkeleton(w)[:rng.Intn(len(consonantSkeleton(w))+1)])
	}
}

// The kernel reaches IsAbbreviationOf on every token pair whose first
// letters agree, so a lowercase ASCII pair must not allocate.
func TestIsAbbreviationOfAllocs(t *testing.T) {
	for _, c := range [][2]string{{"qty", "quantity"}, {"qnty", "quantity"}} {
		if a := testing.AllocsPerRun(100, func() { IsAbbreviationOf(c[0], c[1]) }); a != 0 {
			t.Errorf("IsAbbreviationOf(%q, %q) = %.0f allocs/run, want 0", c[0], c[1], a)
		}
	}
}

func TestAbbrevMatch(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"UOM", "Unit Of Measure", true},
		{"Unit Of Measure", "UOM", true}, // symmetric
		{"Qty", "Quantity", true},
		{"Quantity", "Qty", true},
		{"OrderNo", "OrderNo", false}, // equal labels are not "abbreviations"
		{"", "Quantity", false},
		{"Lines", "Items", false},
		{"BillTo", "BillingAddr", false}, // related but not an abbreviation
	}
	for _, c := range cases {
		if got := AbbrevMatch(c.a, c.b); got != c.want {
			t.Errorf("AbbrevMatch(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
