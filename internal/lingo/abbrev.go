package lingo

import "strings"

// Acronym and abbreviation detection. Schema designers routinely shorten
// labels ("Quantity" → "Qty", "Unit Of Measure" → "UOM", "Purchase Order" →
// "PO"); the QMatch paper classifies such pairs as *relaxed* label matches.
// The detectors below are heuristic but conservative: they only fire when
// the shorter string is structurally derivable from the longer one.

// IsAcronymOf reports whether short is the acronym of the token sequence of
// long: its letters are exactly the first letters of long's tokens
// ("UOM" / "Unit Of Measure", "PO" / "Purchase Order"). Comparison is
// case-insensitive and requires at least two tokens so single words do not
// "acronym" to their own initial.
func IsAcronymOf(short, long string) bool {
	tokens := Tokenize(long)
	if len(tokens) < 2 {
		return false
	}
	return strings.ToLower(short) == FirstLetters(tokens)
}

// IsAbbreviationOf reports whether short abbreviates the single word long,
// e.g. "qty"/"quantity", "no"/"number", "addr"/"address", "amt"/"amount".
// The heuristic requires all of:
//
//   - short is strictly shorter than long and at least 2 characters;
//   - they share the same first letter;
//   - short is a subsequence of long (letters in order), OR short is
//     long's consonant skeleton prefix (vowels dropped);
//   - short covers at least a third of long, or is a prefix of long.
//
// A small table of irregular English shortenings ("no" → "number") covers
// forms the structural rules cannot derive. Both inputs are lowercased
// before testing.
func IsAbbreviationOf(short, long string) bool {
	s, l := strings.ToLower(short), strings.ToLower(long)
	if irregular[s] == l {
		return true
	}
	if len(s) < 2 || len(s) >= len(l) {
		return false
	}
	if s[0] != l[0] {
		return false
	}
	if !IsSubsequence(s, l) && !hasSkeletonPrefix(l, s) {
		return false
	}
	if strings.HasPrefix(l, s) {
		return true
	}
	return 3*len(s) >= len(l)
}

// irregular maps conventional shortenings to their expansions where the
// structural heuristics cannot derive the relation.
var irregular = map[string]string{
	"no":  "number",
	"nbr": "number",
	"wt":  "weight",
	"mfg": "manufacturing",
	"pkg": "package",
}

// hasSkeletonPrefix reports whether s is a prefix of w's consonant
// skeleton — w's first byte followed by its non-vowel bytes, so "qntty" for
// "quantity" — walking w in place instead of building the skeleton.
func hasSkeletonPrefix(w, s string) bool {
	if s == "" {
		return true
	}
	if w == "" || w[0] != s[0] {
		return false
	}
	k := 1
	for i := 1; i < len(w) && k < len(s); i++ {
		switch w[i] {
		case 'a', 'e', 'i', 'o', 'u':
		default:
			if w[i] != s[k] {
				return false
			}
			k++
		}
	}
	return k == len(s)
}

// AbbrevMatch reports whether either label abbreviates or acronymizes the
// other, at whole-label granularity. It is symmetric.
func AbbrevMatch(a, b string) bool {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" || na == nb {
		return false
	}
	short, long := a, b
	if len(na) > len(nb) {
		short, long = b, a
	}
	ns := Normalize(short)
	if IsAcronymOf(ns, long) {
		return true
	}
	// Single-word abbreviation of the whole normalized long form.
	return IsAbbreviationOf(ns, Normalize(long))
}
