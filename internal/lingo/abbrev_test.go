package lingo

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// structuralMatch is Match on an empty thesaurus, so that the structural
// acronym and abbreviation branch decides a relaxed label pair.
func structuralMatch(a, b string) (float64, Kind) { return NewNameMatcher(nil).Match(a, b) }

// An acronym spells the first letters of at least two tokens of the longer
// label, in order.
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
		s, k := structuralMatch(c.short, c.long)
		want := None
		if c.want {
			want = Relaxed
		}
		if k != want || (c.want && s != RelaxedScore) {
			t.Errorf("Match(%q,%q) = (%v,%v), want acronym %v", c.short, c.long, s, k, c.want)
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
		{"qty", "", false},         // short must be strictly shorter than long
		{"", "", false},
	}
	// fix expectation for "qy": 3*2=6 < len("quantity")=8, not prefix → false
	cases[len(cases)-3].want = false
	for _, c := range cases {
		if got := IsAbbreviationOf(c.short, c.long); got != c.want {
			t.Errorf("IsAbbreviationOf(%q,%q) = %v, want %v", c.short, c.long, got, c.want)
		}
	}
}

// isAbbreviationLower runs its length and first-letter guards before it
// probes the irregular table, so an entry that failed them would never be
// found. Every entry must be a lowercase short form of 2+ bytes, strictly
// shorter than its expansion and sharing its first letter.
func TestIrregularPassesGuards(t *testing.T) {
	for s, l := range irregular {
		if len(s) < 2 || len(s) >= len(l) || s[0] != l[0] || s != strings.ToLower(s) || l != strings.ToLower(l) {
			t.Errorf("irregular[%q] = %q fails the guards before the table probe", s, l)
		}
		if !isAbbreviationLower(s, l) {
			t.Errorf("isAbbreviationLower(%q, %q) = false for an irregular entry", s, l)
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

// The matcher runs the abbreviation test on every token pair whose first
// letters agree, so a lowercase ASCII pair must not allocate.
func TestIsAbbreviationOfAllocs(t *testing.T) {
	for _, c := range [][2]string{{"qty", "quantity"}, {"qnty", "quantity"}} {
		if a := testing.AllocsPerRun(100, func() { IsAbbreviationOf(c[0], c[1]) }); a != 0 {
			t.Errorf("IsAbbreviationOf(%q, %q) = %.0f allocs/run, want 0", c[0], c[1], a)
		}
	}
}

// The matcher's callers skip IsAbbreviationOf's lowercasing because
// Tokenize's output, lowercased rune by rune, is a fixed point of
// strings.ToLower. That holds for every label only if unicode.ToLower is
// idempotent on every rune.
func TestToLowerIdempotent(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); unicode.ToLower(l) != l {
			t.Errorf("unicode.ToLower(%U) = %U, whose lowercase is %U", r, l, unicode.ToLower(l))
		}
	}
}

// Either label may abbreviate or acronymize the other: the structural
// branch is symmetric, and equal labels are exact, not abbreviations.
func TestAbbrevMatch(t *testing.T) {
	cases := []struct {
		a, b  string
		score float64
		kind  Kind
	}{
		{"UOM", "Unit Of Measure", RelaxedScore, Relaxed},
		{"Unit Of Measure", "UOM", RelaxedScore, Relaxed},
		{"Qty", "Quantity", RelaxedScore, Relaxed},
		{"Quantity", "Qty", RelaxedScore, Relaxed},
		{"OrderNo", "OrderNo", 1, Exact},
		{"", "Quantity", 0, None},
		{"Lines", "Items", 0, None},
		{"BillTo", "BillingAddr", 0, None}, // related, but not an abbreviation
	}
	for _, c := range cases {
		if s, k := structuralMatch(c.a, c.b); s != c.score || k != c.kind {
			t.Errorf("Match(%q,%q) = (%v,%v), want (%v,%v)", c.a, c.b, s, k, c.score, c.kind)
		}
	}
}
