package lingo

// KernelScorer batch-scores every label pair of two vocabularies — the
// linguistic engine behind internal/core's similarity kernel. Where
// NameMatcher.Match memoizes token-pair scores in a map (paying a hashed
// lookup per token pair per label pair), the scorer observes that a kernel
// fill compares *every* source label against *every* target label, so
// every (source token, target token) combination is needed: it resolves
// the feature vectors of both vocabularies once and precomputes the dense
// token-similarity matrix up front. Score is then pure array arithmetic.
//
// Construction mutates the owning NameMatcher's memo caches and must
// happen on one goroutine; a constructed scorer is read-only, so any
// number of goroutines may call Score concurrently (unlike the matcher
// itself).
type KernelScorer struct {
	m          *NameMatcher
	srcF, tgtF []*LabelFeatures
	// srcToks/tgtToks map label id → the label's token list as matrix-
	// local ids (rows index source tokens, columns target tokens).
	srcToks, tgtToks [][]int32
	ntTok            int
	// sims/exact form the dense token-score matrix
	// [srcLocal*ntTok + tgtLocal], values identical to tokenSim's.
	sims  []float64
	exact []bool
}

// NewKernelScorer builds a scorer over the two label vocabularies. Cost is
// O(Σ|label|) feature building plus O(|srcTokens|·|tgtTokens|) token-pair
// scoring — the same unique-pair work the token memo would do across the
// fill, minus every map probe. done is checked between rows of the token
// matrix: once it is closed, NewKernelScorer stops and returns nil. A nil
// done never stops it.
func (m *NameMatcher) NewKernelScorer(srcLabels, tgtLabels []string, done <-chan struct{}) *KernelScorer {
	ks := &KernelScorer{m: m}
	ks.srcF = make([]*LabelFeatures, len(srcLabels))
	for i, l := range srcLabels {
		ks.srcF[i] = m.Features(l)
	}
	ks.tgtF = make([]*LabelFeatures, len(tgtLabels))
	for i, l := range tgtLabels {
		ks.tgtF[i] = m.Features(l)
	}

	// Collect the distinct global token ids of each side and assign dense
	// matrix-local ids in first-appearance order.
	nGlobal := len(m.tokNames)
	srcLoc := make([]int32, nGlobal)
	tgtLoc := make([]int32, nGlobal)
	for i := range srcLoc {
		srcLoc[i], tgtLoc[i] = -1, -1
	}
	var srcGlob, tgtGlob []int32 // local id → global id
	localize := func(feats []*LabelFeatures, loc []int32, glob *[]int32) [][]int32 {
		out := make([][]int32, len(feats))
		total := 0
		for _, f := range feats {
			total += len(f.ids)
		}
		backing := make([]int32, 0, total)
		for i, f := range feats {
			start := len(backing)
			for _, gid := range f.ids {
				if loc[gid] < 0 {
					loc[gid] = int32(len(*glob))
					*glob = append(*glob, gid)
				}
				backing = append(backing, loc[gid])
			}
			out[i] = backing[start:]
		}
		return out
	}
	ks.srcToks = localize(ks.srcF, srcLoc, &srcGlob)
	ks.tgtToks = localize(ks.tgtF, tgtLoc, &tgtGlob)
	ks.ntTok = len(tgtGlob)

	ks.sims = make([]float64, len(srcGlob)*len(tgtGlob))
	ks.exact = make([]bool, len(ks.sims))
	for i, ga := range srcGlob {
		select {
		case <-done:
			return nil
		default:
		}
		row := i * ks.ntTok
		for j, gb := range tgtGlob {
			ts := m.tokenSimUncached(ga, gb)
			ks.sims[row+j] = ts.score
			ks.exact[row+j] = ts.exact
		}
	}
	return ks
}

// Score returns the label-axis similarity and kind for the source label
// with vocabulary id si against the target label with id tj. The decision
// chain mirrors NameMatcher.MatchFeatures step for step (equality,
// thesaurus, acronym/abbreviation, token aggregation, whole-string
// similarity) and produces bit-identical results; only the token-pair
// source differs — matrix reads instead of memoized calls, which the
// kernel equivalence tests pin as indistinguishable.
func (ks *KernelScorer) Score(si, tj int32) (float64, Kind) {
	m := ks.m
	fa, fb := ks.srcF[si], ks.tgtF[tj]
	if fa.Norm == "" || fb.Norm == "" {
		return 0, None
	}
	if fa.sing == fb.sing {
		return 1, Exact
	}
	if fa.known || fb.known {
		switch m.Thesaurus.RelateNormalized(fa.Norm, fb.Norm) {
		case RelSynonym:
			return 1, Exact
		case RelAcronym, RelHypernym, RelHyponym, RelRelated:
			return RelaxedScore, Relaxed
		}
	}
	if m.abbrevMatch(fa.Norm, fb.Norm, fa.toks, fb.toks) {
		return RelaxedScore, Relaxed
	}
	score, allExact, fullCover := ks.aggregate(si, tj)
	if score >= MatchThreshold {
		if allExact && fullCover && score >= 0.999 {
			return score, Exact
		}
		return score, Relaxed
	}
	if ws, ok := simAtLeast(fa.runes, fb.runes, fa.grams, fb.grams); ok {
		return ws, Relaxed
	}
	return 0, None
}

// aggregate is tokenAggregate over matrix-local token ids.
func (ks *KernelScorer) aggregate(si, tj int32) (score float64, allExact, fullCover bool) {
	sa, sb := ks.srcToks[si], ks.tgtToks[tj]
	if len(sa) == 0 || len(sb) == 0 {
		return 0, false, false
	}
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
