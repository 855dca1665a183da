package lingo

// NameMatcher computes label similarity between two schema labels and
// classifies the result on the QMatch label axis: exact (string-equal or
// synonym), relaxed (hypernym, acronym, abbreviation, or strong string
// similarity) or none. This is the "linguistic match algorithm" slot of the
// paper's framework (§2.1), built after CUPID's name matching: normalize,
// tokenize, discount noise tokens, consult the thesaurus per token, fall
// back to string metrics, and aggregate token scores symmetrically.

// Kind classifies a label-axis match per the QMatch taxonomy.
type Kind int

const (
	// None: the labels do not match.
	None Kind = iota
	// Relaxed: hypernym, acronym, abbreviation or strong string
	// similarity.
	Relaxed
	// Exact: string-equal, synonym, or ontology match.
	Exact
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Relaxed:
		return "relaxed"
	default:
		return "none"
	}
}

// The matcher's fixed tuning.
const (
	// RelaxedScore is the similarity assigned to thesaurus- or
	// abbreviation-derived relaxed matches.
	RelaxedScore = 0.85
	// StringSimFloor is the minimum combined string similarity for two
	// tokens with no thesaurus relation to be considered similar at all.
	// Below the floor a token pair contributes zero.
	StringSimFloor = 0.75
	// MatchThreshold is the minimum aggregate token score for the pair to
	// classify as Relaxed rather than None. Pairs that classify as None
	// score 0 on the label axis.
	MatchThreshold = 0.65
)

// NameMatcher scores label pairs. The zero value is not usable; construct
// with NewNameMatcher. A NameMatcher memoizes tokenizations and token-pair
// similarities and is therefore not safe for concurrent use; give each
// goroutine its own instance.
type NameMatcher struct {
	// Thesaurus supplies synonym / hypernym / acronym relations.
	Thesaurus *Thesaurus

	feats     map[string]*LabelFeatures
	tokIndex  map[string]int32
	tokNames  []string
	tokFeats  []tokenFeat
	tokenSims map[uint64]tokenScore
}

type tokenScore struct {
	score float64
	exact bool
}

// NewNameMatcher returns a NameMatcher over the given thesaurus (nil
// selects an empty thesaurus, disabling semantic relations but keeping
// string similarity).
func NewNameMatcher(t *Thesaurus) *NameMatcher {
	if t == nil {
		t = NewThesaurus()
	}
	return &NameMatcher{
		Thesaurus: t,
		feats:     map[string]*LabelFeatures{},
		tokIndex:  map[string]int32{},
		tokenSims: map[uint64]tokenScore{},
	}
}

// intern assigns (or returns) the dense id of a token, building its
// feature vector (singular form, runes, sorted trigram hashes, thesaurus
// membership) on first sight.
func (m *NameMatcher) intern(tok string) int32 {
	if id, ok := m.tokIndex[tok]; ok {
		return id
	}
	id := int32(len(m.tokNames))
	m.tokNames = append(m.tokNames, tok)
	r := []rune(tok)
	g := ngramHashesRunes(make([]uint64, 0, len(r)+2), r, 3)
	sortHashes(g)
	m.tokFeats = append(m.tokFeats, tokenFeat{
		sing:  Singularize(tok),
		runes: r,
		grams: g,
		known: m.Thesaurus.KnownNormalized(tok),
	})
	m.tokIndex[tok] = id
	return id
}

// Match returns the similarity score in [0,1] and its taxonomy kind for two
// labels. A None classification always scores 0 — the label axis either
// matches (exactly or relaxedly) or it does not (paper §2.1). It is
// MatchFeatures over the memoized per-label feature vectors, so repeated
// labels pay only two map lookups before the pair-level comparison.
func (m *NameMatcher) Match(a, b string) (float64, Kind) {
	return m.MatchFeatures(m.Features(a), m.Features(b))
}

// abbrevMatch reports whether one label acronymizes or abbreviates the
// other, over pre-computed normalized forms and token lists. Word-level
// abbreviation only applies when the long side is a single token —
// detecting "end" as an "abbreviation" of the concatenation "entity"+"id"
// would be a false positive across a token boundary.
func (m *NameMatcher) abbrevMatch(na, nb string, ta, tb []string) bool {
	ns, nl, tl := na, nb, tb
	if len(na) > len(nb) {
		ns, nl, tl = nb, na, ta
	}
	if len(tl) >= 2 && len(ns) == len(tl) {
		// Compare ns against the tokens' first letters in place (the
		// FirstLetters string build is avoidable on this hot path).
		acronym := true
		for i, tok := range tl {
			if tok == "" || tok[0] != ns[i] {
				acronym = false
				break
			}
		}
		if acronym {
			return true
		}
	}
	return len(tl) == 1 && isAbbreviationLower(ns, nl)
}

// Score returns just the similarity of two labels.
func (m *NameMatcher) Score(a, b string) float64 {
	s, _ := m.Match(a, b)
	return s
}

// tokenAggregate performs symmetric best-pair aggregation over the token
// sets: each token is matched to its best counterpart; the aggregate is the
// mean of the two directional averages. It reports whether every best match
// was exact and whether every token on both sides found a counterpart.
func (m *NameMatcher) tokenAggregate(ta, tb []int32) (score float64, allExact, fullCover bool) {
	if len(ta) == 0 || len(tb) == 0 {
		return 0, false, false
	}
	allExact, fullCover = true, true
	dirA := m.direction(ta, tb, &allExact, &fullCover)
	dirB := m.direction(tb, ta, &allExact, &fullCover)
	return (dirA + dirB) / 2, allExact, fullCover
}

func (m *NameMatcher) direction(from, to []int32, allExact, fullCover *bool) float64 {
	total := 0.0
	for _, ft := range from {
		best, bestExact := 0.0, false
		for _, tt := range to {
			s := m.tokenSim(ft, tt)
			if s.score > best || (s.score == best && s.exact && !bestExact) {
				best, bestExact = s.score, s.exact
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

// tokenSim scores one interned token pair (memoized symmetrically under
// the packed id pair).
func (m *NameMatcher) tokenSim(a, b int32) tokenScore {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	if s, ok := m.tokenSims[key]; ok {
		return s
	}
	s := m.tokenSimUncached(a, b)
	m.tokenSims[key] = s
	return s
}

// tokenSimUncached scores one token pair: the front steps, then string
// similarity.
func (m *NameMatcher) tokenSimUncached(a, b int32) tokenScore {
	if s, ok := m.tokenFront(a, b); ok {
		return s
	}
	fa, fb := &m.tokFeats[a], &m.tokFeats[b]
	if s, ok := simAtLeast(fa.runes, fb.runes, fa.grams, fb.grams); ok {
		return tokenScore{s, false}
	}
	return tokenScore{}
}

// tokenFront runs the token chain's steps before string similarity
// (singular equality, thesaurus, abbreviation either way) and reports
// whether one of them decided the pair.
func (m *NameMatcher) tokenFront(a, b int32) (tokenScore, bool) {
	fa, fb := &m.tokFeats[a], &m.tokFeats[b]
	// Distinct ids mean distinct tokens, so singular equality alone covers
	// the "equal or equal-after-singularization" rule.
	if fa.sing == fb.sing {
		return tokenScore{1, true}, true
	}
	ta, tb := m.tokNames[a], m.tokNames[b]
	// Tokens are already lowercase and separator-free; unless both are
	// thesaurus terms the relation is RelNone (see KnownNormalized).
	if fa.known && fb.known {
		switch m.Thesaurus.RelateNormalized(ta, tb) {
		case RelSynonym:
			return tokenScore{1, true}, true
		case RelAcronym, RelHypernym, RelHyponym, RelRelated:
			return tokenScore{RelaxedScore, false}, true
		}
	}
	// Tokens are never empty, and an abbreviation shares its expansion's
	// first byte.
	if ta[0] == tb[0] && (isAbbreviationLower(ta, tb) || isAbbreviationLower(tb, ta)) {
		return tokenScore{RelaxedScore, false}, true
	}
	return tokenScore{}, false
}
