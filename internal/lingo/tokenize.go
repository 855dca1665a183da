// Package lingo is a from-scratch linguistic toolkit for schema label
// matching. It provides the pieces a CUPID-style linguistic matcher needs —
// a label tokenizer, Jaro-Winkler and trigram-Dice string similarity,
// acronym and abbreviation detectors, and a thesaurus with synonym /
// hypernym / acronym relations — built on the standard library only. It
// substitutes for the WordNet-style resources the QMatch paper relies on
// (see DESIGN.md §2).
package lingo

import (
	"strings"
	"sync"
	"unicode"
)

// tokScratch holds the rune working buffers of one Tokenize call. The
// buffers are pooled: tokenization sits under every label comparison, and
// the two []rune conversions it would otherwise allocate per call dominate
// the cold-path allocation profile of a large match.
type tokScratch struct {
	runes, cur []rune
}

var tokScratchPool = sync.Pool{New: func() any { return new(tokScratch) }}

// Tokenize splits a schema label into lowercase word tokens. It recognizes
// camelCase and PascalCase boundaries, ALLCAPS acronym runs (the final
// capital before a lowercase letter starts the next token: "PONumber" →
// ["po", "number"]), digit runs, and the usual separators (space, '_', '-',
// '.', '/', ':', '#'). A trailing '#' is tokenized as the word "number"
// ("Item#" → ["item", "number"]), matching common schema shorthand.
func Tokenize(label string) []string {
	sc := tokScratchPool.Get().(*tokScratch)
	var tokens []string
	cur := sc.cur[:0]
	flush := func() {
		if len(cur) > 0 {
			// Lowercase in place; string(cur) is the only allocation
			// per token (strings.ToLower would add a second).
			for i, r := range cur {
				cur[i] = unicode.ToLower(r)
			}
			tokens = append(tokens, string(cur))
			cur = cur[:0]
		}
	}
	runes := runesInto(sc.runes[:0], label)
	for i, r := range runes {
		switch {
		case r == '#':
			flush()
			tokens = append(tokens, "number")
		case unicode.IsSpace(r) || r == '_' || r == '-' || r == '.' || r == '/' || r == ':' || r == ',' || r == '(' || r == ')':
			flush()
		case unicode.IsDigit(r):
			if len(cur) > 0 && !unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			cur = append(cur, r)
		case unicode.IsUpper(r):
			prevLower := i > 0 && (unicode.IsLower(runes[i-1]) || unicode.IsDigit(runes[i-1]))
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if prevLower || (nextLower && len(cur) > 0) {
				flush()
			}
			cur = append(cur, r)
		default:
			if len(cur) > 0 && unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			cur = append(cur, r)
		}
	}
	flush()
	sc.runes, sc.cur = runes, cur
	tokScratchPool.Put(sc)
	return tokens
}

// Normalize lowercases a label and strips separators, yielding a canonical
// form for whole-label equality tests: "Unit_Of-Measure" → "unitofmeasure".
func Normalize(label string) string {
	return strings.Join(Tokenize(label), "")
}

// Singularize strips a regular English plural suffix from a token:
// "categories" → "category", "boxes" → "box", "items" → "item". Tokens
// ending in "ss"/"us"/"is" ("address", "status", "axis") are left alone.
func Singularize(tok string) string {
	n := len(tok)
	switch {
	case n > 3 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y"
	case n > 4 && (strings.HasSuffix(tok, "ches") || strings.HasSuffix(tok, "shes")):
		return tok[:n-2]
	case n > 3 && (strings.HasSuffix(tok, "ses") || strings.HasSuffix(tok, "xes") || strings.HasSuffix(tok, "zes")):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "s") &&
		!strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us") && !strings.HasSuffix(tok, "is"):
		return tok[:n-1]
	default:
		return tok
	}
}

// noiseTokens are generic container/suffix words that carry no
// discriminating meaning in schema labels ("SequenceInfo" ≈ "Sequence").
// CUPID-style matchers categorize and discount such tokens; we drop them
// when a label has other tokens left.
var noiseTokens = map[string]bool{
	"info": true, "information": true, "list": true, "data": true,
	"record": true, "details": true, "set": true, "group": true,
}

// StripNoise removes noise tokens from a token list unless that would
// empty it.
func StripNoise(tokens []string) []string {
	var kept []string
	for _, t := range tokens {
		if !noiseTokens[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return tokens
	}
	return kept
}

// FirstLetters concatenates the first letter of each token — the candidate
// acronym of a multi-word label: "Unit Of Measure" → "uom".
func FirstLetters(tokens []string) string {
	var b strings.Builder
	for _, t := range tokens {
		if t != "" {
			b.WriteByte(t[0])
		}
	}
	return b.String()
}
