package lingo

// Per-label feature vectors. The pair-table fill scores every unique label
// pair of a schema pair, so anything derivable from one label alone —
// normalization, singularization, rune decoding, trigram hashing and
// sorting, tokenization, thesaurus membership — is O(|labels|) work that
// must not be repeated per pair. LabelFeatures captures exactly that
// per-label state; MatchFeatures is NameMatcher.Match rewritten over two
// feature vectors, sharing one implementation so the scores stay
// bit-identical however a caller reaches them.

// LabelFeatures holds everything the linguistic matcher can precompute
// from a single label. Build instances with NameMatcher.Features, which
// memoizes per label; the fields are sampled at build time, so thesaurus
// edits after the first use of a label are not observed (the same
// staleness contract the token-pair memo has always had).
type LabelFeatures struct {
	// Norm is Normalize(label): lowercase, separator-free.
	Norm string
	// sing is Singularize(Norm); two labels match exactly iff these agree.
	sing string
	// runes is Norm decoded once, the Jaro-Winkler input.
	runes []rune
	// grams is the sorted trigram hash multiset of Norm, ready for a
	// linear Dice merge with no per-pair hashing or sorting.
	grams []uint64
	// toks are the noise-stripped tokens of the raw label; ids are their
	// dense interned ids on the owning matcher.
	toks []string
	ids  []int32
	// known records whether Norm (or its singular) is an end of some
	// thesaurus edge. Unless both sides are known, the whole-label
	// thesaurus lookup is provably RelNone and is skipped.
	known bool
	// forms hashes sing, Norm and, when toks has two or more, the first
	// bytes of toks (the acronym abbrevMatch tests), indexed by formSing,
	// formNorm and formAcro: KernelScorer's candidate generators join
	// labels on them.
	forms [3]uint64
	// mask has bit b&63 set for every byte b of Norm, and irreg records
	// that Norm is a key of the irregular shortening table.
	mask  uint64
	irreg bool
}

// tokenFeat is the per-token analogue of LabelFeatures, indexed by the
// matcher's dense token id. Tokens are already lowercase and
// separator-free, so the token itself plays the role of Norm.
type tokenFeat struct {
	sing  string
	runes []rune
	grams []uint64
	known bool
}

// Features returns the memoized feature vector of a label. The result is
// owned by the matcher and must be treated as read-only; like every
// NameMatcher memo it is not safe for concurrent use.
func (m *NameMatcher) Features(label string) *LabelFeatures {
	if f, ok := m.feats[label]; ok {
		return f
	}
	f := m.buildFeatures(label)
	m.feats[label] = f
	return f
}

func (m *NameMatcher) buildFeatures(label string) *LabelFeatures {
	n := Normalize(label)
	f := &LabelFeatures{Norm: n}
	if n == "" {
		return f
	}
	f.sing = Singularize(n)
	f.runes = []rune(n)
	f.grams = ngramHashesRunes(make([]uint64, 0, len(f.runes)+2), f.runes, 3)
	sortHashes(f.grams)
	f.toks = StripNoise(Tokenize(label))
	f.ids = make([]int32, len(f.toks))
	for i, t := range f.toks {
		f.ids[i] = m.intern(t)
	}
	f.known = m.Thesaurus.KnownNormalized(n)
	f.forms[formSing], f.forms[formNorm] = formKey(f.sing), formKey(n)
	if len(f.toks) >= 2 {
		f.forms[formAcro] = fnvOffset
		for _, t := range f.toks {
			f.forms[formAcro] = fnvByte(f.forms[formAcro], t[0])
		}
	}
	for i := 0; i < len(n); i++ {
		f.mask |= 1 << (n[i] & 63)
	}
	_, f.irreg = irregular[n]
	return f
}

// The entries of LabelFeatures.forms.
const (
	formSing = iota
	formNorm
	formAcro
)

// The FNV-1a hash parameters, shared with the trigram hashes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// formKey returns the FNV-1a hash of a label form's bytes.
func formKey(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// MatchFeatures is Match over prebuilt feature vectors: the same decision
// chain (normalized equality, thesaurus, acronym/abbreviation, token
// aggregation, whole-string similarity) producing bit-identical scores,
// with the per-label work amortized away. Both features must come from
// this matcher's Features (token ids are matcher-local).
func (m *NameMatcher) MatchFeatures(fa, fb *LabelFeatures) (float64, Kind) {
	if fa.Norm == "" || fb.Norm == "" {
		return 0, None
	}
	// Norm equality implies sing equality, so one comparison covers the
	// "equal or equal-after-singularization" exact rule.
	if fa.sing == fb.sing {
		return 1, Exact
	}
	// Whole-label thesaurus relation. With sing-equality excluded above,
	// RelateNormalized can only return non-None when both sides are
	// thesaurus terms (see KnownNormalized).
	if fa.known && fb.known {
		switch m.Thesaurus.RelateNormalized(fa.Norm, fb.Norm) {
		case RelSynonym:
			return 1, Exact
		case RelAcronym, RelHypernym, RelHyponym, RelRelated:
			return RelaxedScore, Relaxed
		}
	}
	// Whole-label acronym / abbreviation detection.
	if m.abbrevMatch(fa.Norm, fb.Norm, fa.toks, fb.toks) {
		return RelaxedScore, Relaxed
	}
	// Token-level aggregation.
	score, allExact, fullCover := m.tokenAggregate(fa.ids, fb.ids)
	if score >= MatchThreshold {
		if allExact && fullCover && score >= 0.999 {
			return score, Exact
		}
		return score, Relaxed
	}
	// Last resort: whole-string similarity of normalized labels, useful
	// for labels that tokenize poorly ("custaddr").
	if ws, ok := simAtLeast(fa.runes, fb.runes, fa.grams, fb.grams); ok {
		return ws, Relaxed
	}
	return 0, None
}

// simAtLeast computes the combined string similarity of two labels or
// tokens from their runes and sorted gram multisets: jw/2 when their
// Jaro-Winkler similarity jw is below 0.5, else (jw + tg)/2 with tg their
// trigram Dice. It reports (value, true) exactly when the value reaches
// StringSimFloor. Below the floor it may return (0, false) without
// finishing the computation: every caller maps below-floor similarities to
// "no match", so the early exits are unobservable.
//
// The Dice merge over pre-sorted grams is far cheaper than Jaro, so it runs
// first and bounds the combined score from above ((1+tg)/2, since jw ≤ 1).
// The jw/2 branch never reaches the floor (jw/2 < 0.25). Both sides are
// non-empty: empty labels return before simAtLeast, and Tokenize never
// yields an empty token.
func simAtLeast(ra, rb []rune, ga, gb []uint64) (float64, bool) {
	// (1+tg)/2 ≥ floor requires tg ≥ 2·floor−1; the bounded merge stops as
	// soon as that is provably out of reach.
	tg, exact := diceSortedBounded(ga, gb, 2*StringSimFloor-1)
	if !exact {
		return 0, false
	}
	return simFromDice(ra, rb, tg)
}

// simFromDice is simAtLeast given the exact trigram Dice tg of the two
// strings. Jaro-Winkler runs only when its upper bound cannot already
// prove the value below the floor: the bound ub is at least jw, and float
// addition and division round monotonically, so ub < 0.5 or
// (ub+tg)/2 < floor rejects every pair the full computation would.
func simFromDice(ra, rb []rune, tg float64) (float64, bool) {
	if (1+tg)/2 < StringSimFloor {
		return 0, false
	}
	if ub, ok := jaroWinklerBound(ra, rb); ok && (ub < 0.5 || (ub+tg)/2 < StringSimFloor) {
		return 0, false
	}
	jw := jaroWinklerRunes(ra, rb)
	if jw < 0.5 {
		return 0, false
	}
	s := (jw + tg) / 2
	return s, s >= StringSimFloor
}
