package lingo

import (
	"math/bits"
	"strings"
	"testing"
)

// referenceMatch is the label-axis decision chain transcribed literally
// over plain strings, with none of the fast paths NameMatcher and
// KernelScorer take: no feature or token memo, no known-flag skip before
// the thesaurus, the acronym test through FirstLetters, and naive string
// Jaro-Winkler and padded trigram Dice that always run to the end. It is
// the independent reference FuzzKernel holds both fast chains to.
func referenceMatch(th *Thesaurus, a, b string) (float64, Kind) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return 0, None
	}
	// Equal, or equal after singularization.
	if na == nb || Singularize(na) == Singularize(nb) {
		return 1, Exact
	}
	switch th.RelateNormalized(na, nb) {
	case RelSynonym:
		return 1, Exact
	case RelAcronym, RelHypernym, RelHyponym, RelRelated:
		return RelaxedScore, Relaxed
	}
	ta, tb := StripNoise(Tokenize(a)), StripNoise(Tokenize(b))
	// The shorter normal form acronymizes the longer label's (noise-
	// stripped) tokens, or abbreviates it when it is a single word.
	short, long, longToks := na, nb, tb
	if len(na) > len(nb) {
		short, long, longToks = nb, na, ta
	}
	if len(longToks) >= 2 && short == FirstLetters(longToks) {
		return RelaxedScore, Relaxed
	}
	if len(longToks) == 1 && IsAbbreviationOf(short, long) {
		return RelaxedScore, Relaxed
	}
	// Symmetric best-pair token aggregation.
	if len(ta) > 0 && len(tb) > 0 {
		allExact, fullCover := true, true
		direction := func(from, to []string) float64 {
			total := 0.0
			for _, f := range from {
				best, bestExact := 0.0, false
				for _, t := range to {
					s, exact := referenceTokenSim(th, f, t)
					if s > best || (s == best && exact && !bestExact) {
						best, bestExact = s, exact
					}
				}
				if best == 0 {
					fullCover = false
				}
				if !bestExact {
					allExact = false
				}
				total += best
			}
			return total / float64(len(from))
		}
		dirA := direction(ta, tb)
		dirB := direction(tb, ta)
		if score := (dirA + dirB) / 2; score >= MatchThreshold {
			if allExact && fullCover && score >= 0.999 {
				return score, Exact
			}
			return score, Relaxed
		}
	}
	// Whole-string similarity of the normal forms.
	if s := referenceStringSim(na, nb); s >= StringSimFloor {
		return s, Relaxed
	}
	return 0, None
}

// referenceTokenSim scores one token pair: exact when equal after
// singularization or synonymous, RelaxedScore for any other thesaurus
// relation or an abbreviation either way, else the combined string
// similarity when it reaches StringSimFloor.
func referenceTokenSim(th *Thesaurus, a, b string) (float64, bool) {
	if a == b || Singularize(a) == Singularize(b) {
		return 1, true
	}
	switch th.RelateNormalized(a, b) {
	case RelSynonym:
		return 1, true
	case RelAcronym, RelHypernym, RelHyponym, RelRelated:
		return RelaxedScore, false
	}
	if IsAbbreviationOf(a, b) || IsAbbreviationOf(b, a) {
		return RelaxedScore, false
	}
	if s := referenceStringSim(a, b); s >= StringSimFloor {
		return s, false
	}
	return 0, false
}

// referenceStringSim is the combined string similarity: half the
// Jaro-Winkler value below 0.5, else the mean of Jaro-Winkler and trigram
// Dice.
func referenceStringSim(a, b string) float64 {
	jw := referenceJaroWinkler(a, b)
	if jw < 0.5 {
		return jw / 2
	}
	return (jw + referenceTrigramDice(a, b)) / 2
}

// referenceJaroWinkler is textbook Jaro-Winkler over runes: matches are
// equal runes within max(|a|,|b|)/2 − 1 positions, each rune of b used at
// most once; t is half the matched runes out of order; the Jaro value
// (m/|a| + m/|b| + (m−t)/m)/3 is boosted by 0.1 per shared prefix rune, up
// to four.
func referenceJaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(0, max(len(ra), len(rb))/2-1)
	usedA, usedB := make([]bool, len(ra)), make([]bool, len(rb))
	m := 0
	for i, r := range ra {
		for j := max(0, i-window); j <= min(len(rb)-1, i+window); j++ {
			if !usedB[j] && rb[j] == r {
				usedA[i], usedB[j] = true, true
				m++
				break
			}
		}
	}
	jaro := 0.0
	if m > 0 {
		var matchedA, matchedB []rune
		for i, u := range usedA {
			if u {
				matchedA = append(matchedA, ra[i])
			}
		}
		for j, u := range usedB {
			if u {
				matchedB = append(matchedB, rb[j])
			}
		}
		outOfOrder := 0
		for k := range matchedA {
			if matchedA[k] != matchedB[k] {
				outOfOrder++
			}
		}
		mf, t := float64(m), float64(outOfOrder)/2
		jaro = (mf/float64(len(ra)) + mf/float64(len(rb)) + (mf-t)/mf) / 3
	}
	prefix := 0
	for prefix < 4 && prefix < len(ra) && prefix < len(rb) && ra[prefix] == rb[prefix] {
		prefix++
	}
	return jaro + float64(prefix)*0.1*(1-jaro)
}

// referenceTrigramDice is the multiset Dice coefficient of the padded rune
// trigrams of a and b. Each string is padded with two NUL runes in front
// and two SOH runes behind, the padding the production hashes use, so a
// label containing those runes grams alike in both.
func referenceTrigramDice(a, b string) float64 {
	grams := func(s string) map[string]int {
		r := append(append([]rune{0, 0}, []rune(s)...), 1, 1)
		out := map[string]int{}
		for i := 0; i+3 <= len(r); i++ {
			out[string(r[i:i+3])]++
		}
		return out
	}
	ga, gb := grams(a), grams(b)
	common, total := 0, 0
	for g, n := range ga {
		common += min(n, gb[g])
		total += n
	}
	for _, n := range gb {
		total += n
	}
	return 2 * float64(common) / float64(total)
}

// kernelPool holds the label shapes the kernel's fast paths are most
// likely to get wrong: thesaurus terms with their plurals, abbreviations
// and acronyms; terms that reach the thesaurus only as hypernym specifics,
// whole ("ShipDate" against "Dates") or as tokens ("BookEditor" against
// "PublicationPerson"); the irregular shortenings; labels led by a noise
// token; digits and non-ASCII runes; labels that normalize to empty;
// labels past the 64-rune stack buffers; near-miss trigram overlaps;
// repeated trigrams, whose multiplicity the overlap index must count;
// token lists that put the coverage bound exactly at MatchThreshold
// ("OrderZq" against "OrderOrdersOrderOrdersQx" covers 1 of 2 and 4 of 5
// tokens); and the modifier+noun+digits labels of the synthetic schemas.
var kernelPool = []string{
	"OrderNo", "order_numbers", "PurchaseOrder", "PO", "POs", "Quantity",
	"Qty", "quantities", "UnitOfMeasure", "UOM", "uoms", "Lines", "Items",
	"Item#", "BillTo", "BillingAddr", "ShippingAddress", "ShipTo", "Writer",
	"Authors", "DateOfBirth", "DOB", "Seq", "Sequences", "xref",
	"CrossReference", "Dates", "PurchaseDate",
	"ShipDate", "Book", "Publications", "Editors", "Person", "BookEditor",
	"PublicationPerson",
	"no", "nbr", "Number", "wt", "Weight", "mfg", "Manufacturing", "pkg",
	"Package", "PkgNo", "ItemNbr",
	"DataUnitOfMeasure", "InfoQuantity", "ListItems", "RecordSet",
	"GroupData", "data", "DataPO",
	"address2", "ISBN13Code", "söme-ünïcode-label", "Straße", "ÄÖÜ",
	"日本語ラベル", "x1y2z3", "İstanbul", "ﬁle", "Ω",
	"", "   ", "_-_", "...", "()",
	strings.Repeat("ab", 33),
	"ThisIsAnExtremelyLongSchemaElementLabelThatExceedsTheStackBufferLimitOfTheStringMetrics",
	strings.Repeat("ü", 70),
	"custaddr", "custaddress", "CustomerAddr", "shipment", "shipments",
	"shipping", "colour", "color", "organisation", "organization",
	"nightly", "nacht", "abcdefgh", "abcdefgx", "xbcdefgh", "manufacturer",
	"manfuanturer", "customername", "custmernane",
	"aaaaaa", "aaa", "abcabcabc", "abcabc", "AbcAbcAbcX", "Abcabcabc_Y",
	"OrderZq", "OrdrZq", "OrderOrdersOrderOrdersQx",
	"PrimaryOrder1234", "SecondaryOrder", "PrimaryOrders", "TotalPrice7",
	"NetPrice", "Customer42",
}

// fuzzVocabulary turns fuzz input into a label vocabulary: the lines of
// text (at most 16, each cut to 160 bytes) plus four pool labels and one
// two-label concatenation drawn by pick, without duplicates.
func fuzzVocabulary(text string, pick uint64) []string {
	var labels []string
	for i, line := range strings.Split(text, "\n") {
		if i == 16 {
			break
		}
		if len(line) > 160 {
			line = line[:160]
		}
		labels = append(labels, line)
	}
	draw := func() string {
		s := kernelPool[pick%uint64(len(kernelPool))]
		pick /= uint64(len(kernelPool))
		return s
	}
	for k := 0; k < 4; k++ {
		labels = append(labels, draw())
	}
	labels = append(labels, draw()+draw())
	seen := map[string]bool{}
	out := labels[:0]
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// FuzzKernel holds every entry of a KernelScorer over two fuzzed
// vocabularies to three other computations of the same label pair, score
// and kind both: Match on a fresh NameMatcher, Match on the warm matcher
// the scorer was built from (after it scored an unrelated vocabulary, so
// its token ids differ from a fresh matcher's), and referenceMatch. Then
// it holds every entry of the token matrix to referenceTokenSim, score and
// exact flag both, and checks that the coverage bitsets mark exactly the
// token pairs that score above zero. The scorer is built over buffers a
// scorer of other vocabularies used and released, and its rows go through
// row scratch pre-filled with garbage. The thesaurus is the built-in one or, to let the
// structural acronym and abbreviation tests decide, an empty one.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, srcText, tgtText string, pick uint64, builtin bool) {
		th := NewThesaurus()
		if builtin {
			th = Default()
		}
		src := fuzzVocabulary(srcText, pick)
		tgt := fuzzVocabulary(tgtText, bits.RotateLeft64(pick, 32))
		warm := NewNameMatcher(th)
		other := fuzzVocabulary("", ^pick)
		for _, l := range other {
			warm.Match(l, src[0])
		}
		warm.NewKernelScorer(tgt, other, nil).Release()
		ks := warm.NewKernelScorer(src, tgt, nil)
		defer ks.Release()
		sc := &RowScratch{
			common: make([]int32, len(tgt)),
			cand:   make([]uint64, (len(tgt)+63)/64),
			cov:    make([]uint64, (len(tgt)+63)/64),
		}
		for j := range sc.common {
			sc.common[j] = int32(j) - 3
		}
		for w := range sc.cand {
			sc.cand[w], sc.cov[w] = 0x5555555555555555, 0xaaaaaaaaaaaaaaaa
		}
		scores, kinds := make([]float64, len(tgt)), make([]Kind, len(tgt))
		for i, a := range src {
			clear(scores)
			clear(kinds)
			last := int32(-1)
			ks.ScoreRow(int32(i), sc, func(j int32, s float64, k Kind) {
				if j <= last || k == None {
					t.Fatalf("row %q: emit(%d, %v, %v) after target %d", a, j, s, k, last)
				}
				last = j
				scores[j], kinds[j] = s, k
			})
			for j, b := range tgt {
				s, k := scores[j], kinds[j]
				fs, fk := NewNameMatcher(th).Match(a, b)
				ws, wk := warm.Match(a, b)
				rs, rk := referenceMatch(th, a, b)
				if s != fs || k != fk || s != ws || k != wk || s != rs || k != rk {
					t.Fatalf("(%q, %q), builtin thesaurus %v: kernel (%v, %v), fresh Match (%v, %v), warm Match (%v, %v), reference (%v, %v)",
						a, b, builtin, s, k, fs, fk, ws, wk, rs, rk)
				}
			}
		}
		checkTokenMatrix(t, ks, th, builtin)
	})
}

// checkTokenMatrix holds every token-matrix entry of ks to
// referenceTokenSim, and checks that each token's coverage bitset, and
// each label's, has a bit set exactly where a token pair scores above
// zero.
func checkTokenMatrix(t *testing.T, ks *KernelScorer, th *Thesaurus, builtin bool) {
	t.Helper()
	ns, nt := len(ks.srcGlob), ks.ntTok
	bit := func(set []uint64, i int) bool { return set[i>>6]>>(i&63)&1 == 1 }
	rowCov, colCov := ks.tokCov[:ns*ks.srcWords], ks.tokCov[ns*ks.srcWords:]
	for i, ga := range ks.srcGlob {
		for j, gb := range ks.tgtGlob {
			a, b := ks.m.tokNames[ga], ks.m.tokNames[gb]
			s, exact := ks.sims[i*nt+j], ks.exact[i*nt+j]
			if rs, rexact := referenceTokenSim(th, a, b); s != rs || exact != rexact {
				t.Fatalf("tokens (%q, %q), builtin thesaurus %v: matrix (%v, %v), reference (%v, %v)",
					a, b, builtin, s, exact, rs, rexact)
			}
			if bit(rowCov[i*ks.srcWords:], j) != (s > 0) || bit(colCov[j*ks.tgtWords:], i) != (s > 0) {
				t.Fatalf("tokens (%q, %q) score %v: row bit %v, column bit %v", a, b, s,
					bit(rowCov[i*ks.srcWords:], j), bit(colCov[j*ks.tgtWords:], i))
			}
		}
	}
	for l, toks := range ks.srcToks {
		for j := range nt {
			want := false
			for _, i := range toks {
				want = want || ks.sims[int(i)*nt+j] > 0
			}
			if bit(ks.srcCov[l*ks.srcWords:], j) != want {
				t.Fatalf("source label %d, target token %q: coverage bit %v, want %v", l, ks.m.tokNames[ks.tgtGlob[j]], !want, want)
			}
		}
	}
	for l, toks := range ks.tgtToks {
		for i := range ns {
			want := false
			for _, j := range toks {
				want = want || ks.sims[i*nt+int(j)] > 0
			}
			if bit(ks.tgtCov[l*ks.tgtWords:], i) != want {
				t.Fatalf("target label %d, source token %q: coverage bit %v, want %v", l, ks.m.tokNames[ks.srcGlob[i]], !want, want)
			}
		}
	}
}
