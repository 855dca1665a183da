package lingo

import "strings"

// Abbreviation detection. Schema designers routinely shorten labels
// ("Quantity" → "Qty", "Unit Of Measure" → "UOM", "Purchase Order" →
// "PO"); the QMatch paper classifies such pairs as *relaxed* label matches.
// The detector below and the acronym test of NameMatcher.abbrevMatch are
// heuristic but conservative: they only fire when the shorter string is
// structurally derivable from the longer one.

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
	return isAbbreviationLower(strings.ToLower(short), strings.ToLower(long))
}

// isAbbreviationLower is IsAbbreviationOf over inputs that are already
// lowercase. The matcher's normal forms and tokens are: Tokenize lowercases
// them rune by rune with unicode.ToLower, which is idempotent, so
// strings.ToLower would return them unchanged.
//
// The length and first-letter guards run before the irregular table's
// probe: every entry passes them (TestIrregularPassesGuards), and they
// reject most token pairs for the price of two compares.
func isAbbreviationLower(s, l string) bool {
	if len(s) < 2 || len(s) >= len(l) || s[0] != l[0] {
		return false
	}
	if irregular[s] == l {
		return true
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
