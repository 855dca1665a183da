package lingo

import (
	"math/bits"
	"sync"
)

// KernelScorer batch-scores every label pair of two vocabularies — the
// linguistic engine behind internal/core's similarity kernel. Where
// NameMatcher.Match memoizes token-pair scores in a map (paying a hashed
// lookup per token pair per label pair), the scorer observes that a kernel
// fill compares *every* source label against *every* target label, so it
// resolves the feature vectors of both vocabularies once and precomputes
// four things up front:
//
//   - the dense token-similarity matrix, so token aggregation is pure array
//     arithmetic. Its string-similarity step takes each token pair's
//     trigram overlap from an index over the target tokens' grams;
//   - per-label coverage bitsets: for each label, the other side's tokens
//     with a nonzero similarity to one of its tokens. They bound token
//     aggregation from above, so the scorer aggregates only the pairs that
//     can reach MatchThreshold;
//   - an inverted index from trigram hash to the target labels holding it,
//     so one scan per source label yields its exact trigram overlap with
//     every target label, where a per-pair Dice merge would walk both gram
//     lists;
//   - candidate generators over the target labels, one per step of the
//     decision chain, so a row visits only the columns some step can
//     accept (see markCandidates).
//
// Almost every label pair of a schema pair scores (0, None); the bounds,
// the index and the generators make proving that cheap. ScoreRow runs the
// decision chain of NameMatcher.MatchFeatures over one source label and
// produces bit-identical results.
//
// Construction mutates the owning NameMatcher's memo caches and must
// happen on one goroutine; a constructed scorer is read-only, so any
// number of goroutines may call ScoreRow concurrently (unlike the matcher
// itself), each with its own scratch.
type KernelScorer struct {
	m          *NameMatcher
	srcF, tgtF []*LabelFeatures
	// srcToks/tgtToks map label id → the label's token list as matrix-
	// local ids (rows index source tokens, columns target tokens), sliced
	// from tokBacking.
	srcToks, tgtToks [][]int32
	tokBacking       []int32
	ntTok            int
	// sims/exact form the dense token-score matrix
	// [srcLocal*ntTok + tgtLocal], values identical to tokenSim's.
	sims  []float64
	exact []bool

	// srcCov holds one bitset of srcWords words per source label over the
	// target tokens that score above zero against one of its tokens;
	// tgtCov one of tgtWords words per target label over the source
	// tokens. tokCov is their per-token build scratch.
	srcCov, tgtCov     []uint64
	srcWords, tgtWords int
	tokCov             []uint64

	// grams indexes the target labels' trigrams, tokGrams the target
	// tokens'; tokCommon is the token matrix's overlap row.
	grams, tokGrams gramIndex
	tokCommon       []int32
	// gramKeys maps a gram hash to its key id in both gram indexes.
	gramKeys keyTable

	// loc maps the matcher's global token ids to matrix-local ones (-1
	// when absent); every entry is -1 between builds. srcGlob/tgtGlob map
	// local ids back to global ones.
	loc              []int32
	srcGlob, tgtGlob []int32

	// The candidate generators over the target labels (see
	// markCandidates): indexes of the hashes of their singular forms,
	// normal forms and acronyms, keyed through formKeys; the thesaurus
	// terms; the possible abbreviations, bucketed by first byte; postings
	// from each target token to the labels holding it; and each label's
	// gram count.
	bySing, byNorm, byAcro gramIndex
	formKeys               keyTable
	knownTgt               []int32
	abbrOff                [abbrKeys + 1]int32
	abbrPost               []abbrPosting
	tokOff, tokLabels      []int32
	tgtGrams               []int32
}

// RowScratch is one worker's scratch for ScoreRow: the row's trigram
// overlap per target label, and two bitmaps over the target labels, the
// candidates and those holding a covered token. The zero value is ready
// to use; ScoreRow sizes it, and its contents between calls are
// unspecified.
type RowScratch struct {
	common    []int32
	cand, cov []uint64
}

var scorerPool = sync.Pool{New: func() any { return new(KernelScorer) }}

// NewKernelScorer builds a scorer over the two label vocabularies. Cost is
// O(Σ|label|) feature building and indexing plus O(|srcTokens|·|tgtTokens|)
// token-pair scoring — the unique-pair work the token memo would do across
// the fill, minus every map probe and Dice merge. The scorer's buffers come
// from a pool; Release returns them. done is checked between rows of the
// token matrix: once it is closed, NewKernelScorer stops and returns nil. A
// nil done never stops it.
func (m *NameMatcher) NewKernelScorer(srcLabels, tgtLabels []string, done <-chan struct{}) *KernelScorer {
	ks := scorerPool.Get().(*KernelScorer)
	ks.m = m
	ks.srcF = featuresInto(ks.srcF, m, srcLabels)
	ks.tgtF = featuresInto(ks.tgtF, m, tgtLabels)

	// Assign dense matrix-local token ids per side in first-appearance
	// order, slicing each label's local token list from one backing array.
	total := 0
	for _, f := range ks.srcF {
		total += len(f.ids)
	}
	for _, f := range ks.tgtF {
		total += len(f.ids)
	}
	ks.tokBacking = resize(ks.tokBacking, total)[:0]
	for len(ks.loc) < len(m.tokNames) {
		ks.loc = append(ks.loc, -1)
	}
	ks.srcToks, ks.srcGlob = ks.localize(ks.srcToks, ks.srcGlob[:0], ks.srcF)
	ks.tgtToks, ks.tgtGlob = ks.localize(ks.tgtToks, ks.tgtGlob[:0], ks.tgtF)
	ns, nt := len(ks.srcGlob), len(ks.tgtGlob)
	ks.ntTok = nt

	// The token matrix, recording which token pairs score above zero: row
	// bitsets over the target tokens for each source token, then column
	// bitsets over the source tokens for each target token. Each pair runs
	// tokenSimUncached's front steps, then takes its string similarity
	// from the overlap row as ScoreRow does for labels.
	ks.srcWords, ks.tgtWords = (nt+63)/64, (ns+63)/64
	rowCov, colCov := ns*ks.srcWords, nt*ks.tgtWords
	ks.tokCov = resize(ks.tokCov, rowCov+colCov)
	clear(ks.tokCov)
	ks.sims = resize(ks.sims, ns*nt)
	ks.exact = resize(ks.exact, ns*nt)
	ks.gramKeys.reset()
	ks.tokGrams.build(&ks.gramKeys, nt, func(j int) []uint64 { return m.tokFeats[ks.tgtGlob[j]].grams })
	ks.tokCommon = resize(ks.tokCommon, nt)
	for i, ga := range ks.srcGlob {
		select {
		case <-done:
			ks.Release()
			return nil
		default:
		}
		fa := &m.tokFeats[ga]
		ks.tokGrams.overlap(&ks.gramKeys, fa.grams, ks.tokCommon)
		row := i * nt
		for j, gb := range ks.tgtGlob {
			ts, ok := m.tokenFront(ga, gb)
			if !ok {
				fb := &m.tokFeats[gb]
				tg := 2 * float64(ks.tokCommon[j]) / float64(len(fa.grams)+len(fb.grams))
				if s, ok := simFromDice(fa.runes, fb.runes, tg); ok {
					ts = tokenScore{s, false}
				}
			}
			ks.sims[row+j] = ts.score
			ks.exact[row+j] = ts.exact
			if ts.score > 0 {
				ks.tokCov[i*ks.srcWords+j>>6] |= 1 << (j & 63)
				ks.tokCov[rowCov+j*ks.tgtWords+i>>6] |= 1 << (i & 63)
			}
		}
	}
	ks.srcCov = unionCov(ks.srcCov, ks.srcToks, ks.tokCov[:rowCov], ks.srcWords)
	ks.tgtCov = unionCov(ks.tgtCov, ks.tgtToks, ks.tokCov[rowCov:], ks.tgtWords)

	ks.grams.build(&ks.gramKeys, len(ks.tgtF), func(j int) []uint64 { return ks.tgtF[j].grams })
	ks.buildGenerators()
	return ks
}

// buildGenerators indexes the target labels for markCandidates.
func (ks *KernelScorer) buildGenerators() {
	nt := len(ks.tgtF)
	formOf := func(form int) func(j int) []uint64 {
		return func(j int) []uint64 {
			f := ks.tgtF[j]
			if f.Norm == "" || form == formAcro && len(f.toks) < 2 {
				return nil
			}
			return f.forms[form : form+1]
		}
	}
	ks.formKeys.reset()
	ks.bySing.build(&ks.formKeys, nt, formOf(formSing))
	ks.byNorm.build(&ks.formKeys, nt, formOf(formNorm))
	ks.byAcro.build(&ks.formKeys, nt, formOf(formAcro))

	ks.knownTgt = ks.knownTgt[:0]
	ks.tgtGrams = resize(ks.tgtGrams, nt)
	clear(ks.abbrOff[:])
	for j, f := range ks.tgtF {
		if f.known {
			ks.knownTgt = append(ks.knownTgt, int32(j))
		}
		ks.tgtGrams[j] = int32(len(f.grams))
		if f.Norm != "" {
			ks.abbrOff[abbrKey(f)]++
		}
	}

	// Counting sorts place the postings: running sums turn counts into
	// end offsets, and placing the labels backwards decrements each key's
	// offset to its start, leaving postings in ascending label order.
	ends(ks.abbrOff[:])
	ks.abbrPost = resize(ks.abbrPost, int(ks.abbrOff[abbrKeys]))
	for j := nt - 1; j >= 0; j-- {
		if f := ks.tgtF[j]; f.Norm != "" {
			k := abbrKey(f)
			ks.abbrOff[k]--
			ks.abbrPost[ks.abbrOff[k]] = abbrPosting{int32(j), int32(len(f.Norm)), f.mask, len(f.toks) == 1, f.irreg}
		}
	}

	ks.tokOff = resize(ks.tokOff, ks.ntTok+1)
	clear(ks.tokOff)
	for _, ts := range ks.tgtToks {
		for _, t := range ts {
			ks.tokOff[t]++
		}
	}
	ends(ks.tokOff)
	ks.tokLabels = resize(ks.tokLabels, int(ks.tokOff[ks.ntTok]))
	for j := nt - 1; j >= 0; j-- {
		for _, t := range ks.tgtToks[j] {
			ks.tokOff[t]--
			ks.tokLabels[ks.tokOff[t]] = int32(j)
		}
	}
}

// ends turns per-key counts into end offsets by running sums.
func ends(off []int32) {
	sum := int32(0)
	for k, c := range off {
		sum += c
		off[k] = sum
	}
}

// Release drops the scorer's references to its matcher and labels and
// returns its buffers to the pool. The scorer must not be used afterwards.
func (ks *KernelScorer) Release() {
	ks.m = nil
	clear(ks.srcF)
	clear(ks.tgtF)
	scorerPool.Put(ks)
}

// featuresInto resolves the feature vector of every label into buf.
func featuresInto(buf []*LabelFeatures, m *NameMatcher, labels []string) []*LabelFeatures {
	buf = resize(buf, len(labels))
	for i, l := range labels {
		buf[i] = m.Features(l)
	}
	return buf
}

// localize maps each label's global token ids to local ones, assigning
// new local ids (recorded in glob) in first-appearance order, and resets
// the loc entries it set once done.
func (ks *KernelScorer) localize(out [][]int32, glob []int32, feats []*LabelFeatures) ([][]int32, []int32) {
	out = resize(out, len(feats))
	for i, f := range feats {
		start := len(ks.tokBacking)
		for _, gid := range f.ids {
			if ks.loc[gid] < 0 {
				ks.loc[gid] = int32(len(glob))
				glob = append(glob, gid)
			}
			ks.tokBacking = append(ks.tokBacking, ks.loc[gid])
		}
		out[i] = ks.tokBacking[start:len(ks.tokBacking):len(ks.tokBacking)]
	}
	for _, gid := range glob {
		ks.loc[gid] = -1
	}
	return out, glob
}

// unionCov returns, in buf, one bitset of words words per label: the union
// of the per-token bitsets tokCov holds for the label's tokens.
func unionCov(buf []uint64, toks [][]int32, tokCov []uint64, words int) []uint64 {
	buf = resize(buf, len(toks)*words)
	clear(buf)
	for l, ts := range toks {
		dst := buf[l*words : (l+1)*words]
		for _, t := range ts {
			for w, v := range tokCov[int(t)*words : (int(t)+1)*words] {
				dst[w] |= v
			}
		}
	}
	return buf
}

// countCovered returns how many of toks have their bit set in cov.
func countCovered(toks []int32, cov []uint64) int {
	n := 0
	for _, t := range toks {
		n += int(cov[t>>6] >> (t & 63) & 1)
	}
	return n
}

// ScoreRow scores the source label with vocabulary id si against every
// target label, calling emit(tj, score, kind) for each pair that matches
// (kind Relaxed or Exact), in ascending tj order; every pair it does not
// emit scores (0, None). sc is caller-owned scratch; concurrent calls need
// distinct scratch.
//
// The decision chain mirrors NameMatcher.MatchFeatures step for step
// (equality, thesaurus, acronym/abbreviation, token aggregation,
// whole-string similarity) and produces bit-identical results. It runs
// only on the candidate columns markCandidates yields, a superset of the
// columns some step accepts. Two steps take further shortcuts that cannot
// change an outcome:
//
//   - token aggregation runs only when the coverage bound reaches
//     MatchThreshold. A token's best score is at most 1 and an uncovered
//     token's is 0, and float addition and division round monotonically,
//     so the aggregate never exceeds (covA/|sa| + covB/|sb|)/2;
//   - the trigram Dice comes from the exact multiset overlap the index
//     counts, through the expression a completed diceSortedBounded merge
//     evaluates. Where that merge would bail, the Dice is below 0.5 and
//     simFromDice rejects it as the bail does.
func (ks *KernelScorer) ScoreRow(si int32, sc *RowScratch, emit func(tj int32, score float64, kind Kind)) {
	m := ks.m
	fa := ks.srcF[si]
	if fa.Norm == "" {
		return
	}
	ks.markCandidates(si, sc)
	sa := ks.srcToks[si]
	srcCov := ks.srcCov[int(si)*ks.srcWords : (int(si)+1)*ks.srcWords]
	for w, word := range sc.cand {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			tj, fb := int32(j), ks.tgtF[j]
			if fb.Norm == "" {
				continue
			}
			if fa.sing == fb.sing {
				emit(tj, 1, Exact)
				continue
			}
			if fa.known && fb.known {
				switch m.Thesaurus.RelateNormalized(fa.Norm, fb.Norm) {
				case RelSynonym:
					emit(tj, 1, Exact)
					continue
				case RelAcronym, RelHypernym, RelHyponym, RelRelated:
					emit(tj, RelaxedScore, Relaxed)
					continue
				}
			}
			if m.abbrevMatch(fa.Norm, fb.Norm, fa.toks, fb.toks) {
				emit(tj, RelaxedScore, Relaxed)
				continue
			}
			if sb := ks.tgtToks[tj]; ks.coverageReaches(srcCov, j, sa, sb) {
				score, allExact, fullCover := ks.aggregate(sa, sb)
				if score >= MatchThreshold {
					if allExact && fullCover && score >= 0.999 {
						emit(tj, score, Exact)
					} else {
						emit(tj, score, Relaxed)
					}
					continue
				}
			}
			tg := 2 * float64(sc.common[j]) / float64(len(fa.grams)+len(fb.grams))
			if ws, ok := simFromDice(fa.runes, fb.runes, tg); ok {
				emit(tj, ws, Relaxed)
			}
		}
	}
}

// markCandidates sizes sc for the target vocabulary, writes source label
// si's trigram overlap with every target label into sc.common, and sets in
// sc.cand the bit of every target label that some step of ScoreRow's chain
// can accept; si's normal form is non-empty. Each step has a generator
// that yields every column the step accepts:
//
//   - equal singular forms: the targets whose singular form hashes as
//     si's does (a collision of distinct forms only adds a candidate);
//   - thesaurus: every thesaurus-term target, when si is a term; the step
//     runs only when both sides are;
//   - acronym: the targets whose acronym hashes as si's normal form does,
//     and those whose normal form hashes as si's acronym does.
//     abbrevMatch's acronym test compares the shorter normal form byte by
//     byte with the first bytes of the longer label's noise-stripped
//     tokens, two or more, and the acronym hash is that byte string's;
//   - abbreviation: the targets whose normal form starts with si's first
//     byte and differs in length, where the longer side is one token, the
//     shorter at least two bytes, and every byte of the shorter occurs in
//     the longer (the byte masks), unless the shorter is an irregular
//     key. isAbbreviationLower demands the length, first-byte and
//     irregular-key conditions outright; otherwise the shorter form is a
//     rune subsequence of the longer, or a prefix of its consonant
//     skeleton, and normal forms are valid UTF-8, so its bytes all occur
//     in the longer;
//   - token aggregation: the targets that hold a target token set in si's
//     coverage bitset (the union of those tokens' postings) and pass
//     coverageReaches. The step runs only where coverageReaches holds, and
//     that needs such a token (covB > 0);
//   - whole-string similarity: the targets with 4·common ≥ |ga|+|gb|.
//     That is simFromDice's (1+tg)/2 ≥ StringSimFloor for every gram count
//     below 2⁵⁰: at 4·common ≥ |ga|+|gb| the Dice is at least 0.5
//     exactly, and below it the Dice is at most 0.5 − 1/(2(|ga|+|gb|)), a
//     gap wider than the rounding of tg, 1+tg and /2.
func (ks *KernelScorer) markCandidates(si int32, sc *RowScratch) {
	fa := ks.srcF[si]
	nt := len(ks.tgtF)
	sc.common = resize(sc.common, nt)
	sc.cand = resize(sc.cand, (nt+63)>>6)
	sc.cov = resize(sc.cov, len(sc.cand))
	ks.grams.overlap(&ks.gramKeys, fa.grams, sc.common)

	// One dense pass marks the whole-string candidates a bitmap word at a
	// time.
	ga := len(fa.grams)
	for w := range sc.cand {
		var word uint64
		for b, j := 0, w<<6; b < 64 && j < nt; b, j = b+1, j+1 {
			if 4*int(sc.common[j]) >= ga+int(ks.tgtGrams[j]) {
				word |= 1 << b
			}
		}
		sc.cand[w] = word
	}

	clear(sc.cov)
	srcCov := ks.srcCov[int(si)*ks.srcWords : (int(si)+1)*ks.srcWords]
	for w, word := range srcCov {
		for ; word != 0; word &= word - 1 {
			t := w<<6 | bits.TrailingZeros64(word)
			for _, j := range ks.tokLabels[ks.tokOff[t]:ks.tokOff[t+1]] {
				sc.cov[j>>6] |= 1 << (j & 63)
			}
		}
	}
	sa := ks.srcToks[si]
	for w, word := range sc.cov {
		for word &^= sc.cand[w]; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if ks.coverageReaches(srcCov, j, sa, ks.tgtToks[j]) {
				sc.cand[w] |= 1 << (j & 63)
			}
		}
	}

	ks.bySing.mark(&ks.formKeys, fa.forms[formSing], sc.cand)
	ks.byAcro.mark(&ks.formKeys, fa.forms[formNorm], sc.cand)
	if len(fa.toks) >= 2 {
		ks.byNorm.mark(&ks.formKeys, fa.forms[formAcro], sc.cand)
	}
	if fa.known {
		for _, j := range ks.knownTgt {
			sc.cand[j>>6] |= 1 << (j & 63)
		}
	}
	// Single-token targets lead each first-byte bucket; a source of more
	// than one token can only be the shorter side, so it reads just those.
	na, single := int32(len(fa.Norm)), len(fa.toks) == 1
	k := int(fa.Norm[0]) << 1
	end := ks.abbrOff[k+1]
	if single {
		end = ks.abbrOff[k+2]
	}
	for _, p := range ks.abbrPost[ks.abbrOff[k]:end] {
		if p.n > na && p.single && na >= 2 && (fa.irreg || fa.mask&^p.mask == 0) ||
			p.n < na && single && p.n >= 2 && (p.irreg || p.mask&^fa.mask == 0) {
			sc.cand[p.label>>6] |= 1 << (p.label & 63)
		}
	}
}

// coverageReaches reports whether the coverage bound of source tokens sa
// against target label j's tokens sb reaches MatchThreshold; srcCov is
// the source label's coverage bitset. With no covered target token the
// bound is at most 1/2, so the source side goes uncounted.
func (ks *KernelScorer) coverageReaches(srcCov []uint64, j int, sa, sb []int32) bool {
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	covB := countCovered(sb, srcCov)
	if covB == 0 {
		return false
	}
	covA := countCovered(sa, ks.tgtCov[j*ks.tgtWords:(j+1)*ks.tgtWords])
	return (float64(covA)/float64(len(sa))+float64(covB)/float64(len(sb)))/2 >= MatchThreshold
}

// aggregate is tokenAggregate over matrix-local token ids; both lists are
// non-empty.
func (ks *KernelScorer) aggregate(sa, sb []int32) (score float64, allExact, fullCover bool) {
	allExact, fullCover = true, true
	dirA := ks.directionSrc(sa, sb, &allExact, &fullCover)
	dirB := ks.directionTgt(sb, sa, &allExact, &fullCover)
	return (dirA + dirB) / 2, allExact, fullCover
}

// directionSrc walks source tokens against target candidates; the matrix
// row of one source token is contiguous. Best-candidate selection keeps
// direction's tie rule: at equal score an exact pairing wins.
func (ks *KernelScorer) directionSrc(from, to []int32, allExact, fullCover *bool) float64 {
	total := 0.0
	for _, f := range from {
		row := int(f) * ks.ntTok
		best, bestExact := 0.0, false
		for _, t := range to {
			s := ks.sims[row+int(t)]
			if s > best || (s == best && !bestExact && ks.exact[row+int(t)]) {
				best, bestExact = s, ks.exact[row+int(t)]
			}
		}
		if best == 0 {
			*fullCover = false
		}
		if !bestExact {
			*allExact = false
		}
		total += best
	}
	return total / float64(len(from))
}

// directionTgt is the reverse direction: token similarity is symmetric, so
// it reads the same matrix transposed.
func (ks *KernelScorer) directionTgt(from, to []int32, allExact, fullCover *bool) float64 {
	total := 0.0
	for _, f := range from {
		best, bestExact := 0.0, false
		for _, t := range to {
			idx := int(t)*ks.ntTok + int(f)
			s := ks.sims[idx]
			if s > best || (s == best && !bestExact && ks.exact[idx]) {
				best, bestExact = s, ks.exact[idx]
			}
		}
		if best == 0 {
			*fullCover = false
		}
		if !bestExact {
			*allExact = false
		}
		total += best
	}
	return total / float64(len(from))
}

// abbrKeys is the number of abbreviation buckets: one per first byte of a
// normal form, split into single-token and multi-token labels.
const abbrKeys = 512

// abbrKey returns the abbreviation bucket of a label with a non-empty
// normal form: two per first byte, the single-token labels' bucket first.
func abbrKey(f *LabelFeatures) int {
	k := int(f.Norm[0]) << 1
	if len(f.toks) != 1 {
		k++
	}
	return k
}

// abbrPosting is one target label in an abbreviation bucket, with what the
// abbreviation generator tests: its normal form's length and byte mask,
// whether it is one token, and whether its normal form is an irregular
// key.
type abbrPosting struct {
	label, n      int32
	mask          uint64
	single, irreg bool
}

// gramIndex is an inverted index from trigram hash (or label-form hash)
// to the labels (or tokens) holding it, in compressed sparse row form: the
// gram with key id k has the postings post[off[k]:off[k+1]], in ascending
// label order. The key ids come from a keyTable that several indexes may
// share.
type gramIndex struct {
	off  []int32
	post []gramPosting
	runs []gramRun // build scratch
}

// gramPosting records that a label holds a gram mult times.
type gramPosting struct{ label, mult int32 }

// gramRun is one (label, distinct gram) run of a sorted gram multiset.
type gramRun struct{ key, label, mult int32 }

// build indexes n sorted gram multisets, gramsOf(l) being label l's,
// adding to keys every gram it lacks.
func (x *gramIndex) build(keys *keyTable, n int, gramsOf func(l int) []uint64) {
	x.runs = x.runs[:0]
	for l := range n {
		g := gramsOf(l)
		for i := 0; i < len(g); {
			j := i + 1
			for j < len(g) && g[j] == g[i] {
				j++
			}
			x.runs = append(x.runs, gramRun{keys.add(g[i]), int32(l), int32(j - i)})
			i = j
		}
	}
	// Count each key's postings, then running sums turn the counts into
	// end offsets; placing the runs backwards decrements each key's
	// offset to its start and leaves its postings in ascending label
	// order.
	x.off = resize(x.off, int(keys.n)+1)
	clear(x.off)
	for _, run := range x.runs {
		x.off[run.key]++
	}
	ends(x.off)
	x.post = resize(x.post, int(x.off[keys.n]))
	for r := len(x.runs) - 1; r >= 0; r-- {
		run := x.runs[r]
		x.off[run.key]--
		x.post[x.off[run.key]] = gramPosting{run.label, run.mult}
	}
}

// overlap writes into common, per indexed label, the size of the multiset
// intersection of its grams with the sorted multiset g: the count a
// diceSortedBounded merge of the two reaches. keys is the table build used.
func (x *gramIndex) overlap(keys *keyTable, g []uint64, common []int32) {
	clear(common)
	for i := 0; i < len(g); {
		j := i + 1
		for j < len(g) && g[j] == g[i] {
			j++
		}
		// Keys added after this index was built have no offsets in it.
		if k, ok := keys.lookup(g[i]); ok && int(k)+1 < len(x.off) {
			ma := int32(j - i)
			for _, p := range x.post[x.off[k]:x.off[k+1]] {
				common[p.label] += min(ma, p.mult)
			}
		}
		i = j
	}
}

// keyTable assigns dense key ids to 64-bit hashes: an open-addressed
// table with linear probing, at most half full. A slot is live only while
// it carries the table's current generation, so reset empties the table
// without clearing it, and a warm table allocates nothing.
type keyTable struct {
	slots []keySlot
	shift uint8 // 64 − log2(len(slots))
	gen   uint32
	n     int32 // live keys, which hold ids 0..n-1
}

type keySlot struct {
	hash uint64
	id   int32
	gen  uint32
}

// reset empties the table.
func (t *keyTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: every stale slot would read as live
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns the index of h's slot, or of the empty slot h would take.
// The table must be non-empty.
func (t *keyTable) slot(h uint64) int {
	mask := len(t.slots) - 1
	i := int(h * 0x9e3779b97f4a7c15 >> t.shift)
	for t.slots[i].gen == t.gen && t.slots[i].hash != h {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the key id of h, if it has one.
func (t *keyTable) lookup(h uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	s := &t.slots[t.slot(h)]
	return s.id, s.gen == t.gen
}

// add returns the key id of h, assigning the next one on first sight.
func (t *keyTable) add(h uint64) int32 {
	if 2*(int(t.n)+1) > len(t.slots) {
		t.grow()
	}
	i := t.slot(h)
	if s := &t.slots[i]; s.gen == t.gen {
		return s.id
	}
	t.slots[i] = keySlot{h, t.n, t.gen}
	t.n++
	return t.n - 1
}

// grow doubles the table, to 64 slots at least, and re-places its keys.
func (t *keyTable) grow() {
	old, gen := t.slots, t.gen
	t.slots = make([]keySlot, max(64, 2*len(old)))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	t.gen = 1
	for _, s := range old {
		if s.gen == gen {
			t.slots[t.slot(s.hash)] = keySlot{s.hash, s.id, 1}
		}
	}
}

// mark sets in cand the bit of every indexed label that holds the hash h.
// keys is the table build used.
func (x *gramIndex) mark(keys *keyTable, h uint64, cand []uint64) {
	if k, ok := keys.lookup(h); ok && int(k)+1 < len(x.off) {
		for _, p := range x.post[x.off[k]:x.off[k+1]] {
			cand[p.label>>6] |= 1 << (p.label & 63)
		}
	}
}

// resize returns s resized to n elements, reusing its backing array when
// the capacity allows. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
