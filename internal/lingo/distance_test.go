package lingo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// jaro is jaroRunes over two strings with fresh match scratch.
func jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	return jaroRunes(ra, rb, make([]bool, len(ra)), make([]bool, len(rb)))
}

func jaroWinkler(a, b string) float64 { return jaroWinklerRunes([]rune(a), []rune(b)) }

// sortedTrigrams is a label's sorted padded trigram hash multiset, the form
// LabelFeatures stores.
func sortedTrigrams(s string) []uint64 {
	g := ngramHashesRunes(nil, []rune(s), 3)
	sortHashes(g)
	return g
}

// trigramDice is the exact trigram Dice of two strings: with need 0 the
// bounded merge never exits early. It reports false when a side has no
// grams (the empty string).
func trigramDice(a, b string) (float64, bool) {
	return diceSortedBounded(sortedTrigrams(a), sortedTrigrams(b), 0)
}

func TestJaro(t *testing.T) {
	if got := jaro("", ""); got != 1 {
		t.Fatalf("Jaro empty = %v", got)
	}
	if got := jaro("a", ""); got != 0 {
		t.Fatalf("Jaro vs empty = %v", got)
	}
	if got := jaro("abc", "abc"); got != 1 {
		t.Fatalf("Jaro equal = %v", got)
	}
	// Classic textbook value: JARO(MARTHA, MARHTA) = 0.944...
	if got := jaro("MARTHA", "MARHTA"); math.Abs(got-0.944444) > 1e-4 {
		t.Fatalf("Jaro(MARTHA,MARHTA) = %v", got)
	}
	if got := jaro("abc", "xyz"); got != 0 {
		t.Fatalf("Jaro disjoint = %v", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	// Classic textbook value: JW(DIXON, DICKSONX) = 0.8133...
	if got := jaroWinkler("DIXON", "DICKSONX"); math.Abs(got-0.81333) > 1e-4 {
		t.Fatalf("JW(DIXON,DICKSONX) = %v", got)
	}
	// Prefix boost: JW >= Jaro always.
	if jaroWinkler("prefix", "preface") < jaro("prefix", "preface") {
		t.Fatal("JW below Jaro")
	}
	// Past the stack buffers the pooled path must agree with the
	// definition: a 70-rune label against itself with one rune changed.
	long := strings.Repeat("ab", 35)
	changed := long[:69] + "x"
	if got, want := jaroWinkler(long, changed), jaro(long, changed)+0.4*(1-jaro(long, changed)); got != want {
		t.Fatalf("JW(long) = %v, want %v", got, want)
	}
}

func TestSimilarityBounds(t *testing.T) {
	clip := func(s string) string {
		if len(s) > 10 {
			return s[:10]
		}
		return s
	}
	in01 := func(f func(a, b string) float64) func(a, b string) bool {
		return func(a, b string) bool {
			v := f(clip(a), clip(b))
			return v >= 0 && v <= 1+1e-9
		}
	}
	for name, f := range map[string]func(a, b string) float64{
		"Jaro":        jaro,
		"JaroWinkler": jaroWinkler,
		"TrigramDice": func(a, b string) float64 { d, _ := trigramDice(a, b); return d },
	} {
		if err := quick.Check(in01(f), &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s bounds: %v", name, err)
		}
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	self := func(a string) bool {
		if len(a) > 10 {
			a = a[:10]
		}
		if jaro(a, a) != 1 || jaroWinkler(a, a) != 1 {
			return false
		}
		d, exact := trigramDice(a, a)
		return a == "" && !exact || d == 1 && exact
	}
	if err := quick.Check(self, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNGramSim(t *testing.T) {
	// night: ⁰⁰n ⁰ni nig igh ght ht¹ t¹¹; nacht: ⁰⁰n ⁰na nac ach cht ht¹
	// t¹¹ — three of seven trigrams shared, Dice 6/14.
	if got, exact := trigramDice("night", "nacht"); !exact || math.Abs(got-6.0/14) > 1e-12 {
		t.Fatalf("trigram Dice(night,nacht) = %v, %v; want 6/14", got, exact)
	}
	if got, exact := trigramDice("abc", "abc"); !exact || got != 1 {
		t.Fatalf("trigram Dice equal = %v, %v", got, exact)
	}
	if got, exact := trigramDice("", "abc"); exact || got != 0 {
		t.Fatalf("trigram Dice empty = %v, %v; want 0, false", got, exact)
	}
	// The bounded merge bails once need is out of reach and finishes
	// exactly otherwise.
	ga, gb := sortedTrigrams("night"), sortedTrigrams("nacht")
	if _, exact := diceSortedBounded(ga, gb, 0.5); exact {
		t.Fatal("bounded Dice(night,nacht) reached need 0.5")
	}
	if got, exact := diceSortedBounded(ga, gb, 6.0/14); !exact || got != 6.0/14 {
		t.Fatalf("bounded Dice(night,nacht) at need 6/14 = %v, %v", got, exact)
	}
}

func TestIsSubsequence(t *testing.T) {
	if !IsSubsequence("qty", "quantity") {
		t.Fatal("qty should be subsequence of quantity")
	}
	if IsSubsequence("qtz", "quantity") {
		t.Fatal("qtz should not be subsequence")
	}
	if !IsSubsequence("", "anything") {
		t.Fatal("empty is a subsequence of anything")
	}
	if IsSubsequence("a", "") {
		t.Fatal("non-empty not subsequence of empty")
	}
}
