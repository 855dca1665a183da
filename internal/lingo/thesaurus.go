package lingo

// Thesaurus stores the semantic relations the linguistic matcher consults:
// synonym (exact matches in the QMatch taxonomy), hypernym/hyponym and
// acronym/abbreviation expansions (relaxed matches). It plays the role of
// the WordNet-style resource the paper's linguistic algorithm depends on.
//
// All entries are stored under Normalize(word), so lookups are insensitive
// to case and separators.

// Relation classifies how two terms relate in the thesaurus.
type Relation int

const (
	// RelNone means the thesaurus records no relation.
	RelNone Relation = iota
	// RelSynonym: the terms name the same concept (exact label match).
	RelSynonym
	// RelHypernym: the first term is a generalization of the second
	// (relaxed label match).
	RelHypernym
	// RelHyponym: the first term is a specialization of the second
	// (relaxed label match).
	RelHyponym
	// RelAcronym: one term is a recorded acronym or abbreviation of the
	// other (relaxed label match).
	RelAcronym
	// RelRelated: the terms overlap semantically without being synonyms
	// (relaxed label match), e.g. "Lines" and "Items" in the paper's
	// purchase-order example.
	RelRelated
)

// String returns the relation name for diagnostics.
func (r Relation) String() string {
	switch r {
	case RelSynonym:
		return "synonym"
	case RelHypernym:
		return "hypernym"
	case RelHyponym:
		return "hyponym"
	case RelAcronym:
		return "acronym"
	case RelRelated:
		return "related"
	default:
		return "none"
	}
}

// Thesaurus is a symmetric synonym store plus directed hypernym edges and
// symmetric acronym expansions. The zero value is not usable; call
// NewThesaurus or Default.
type Thesaurus struct {
	syn   map[string]map[string]bool // undirected
	hyper map[string]map[string]bool // hyper[general][specific]
	acro  map[string]map[string]bool // undirected
	rel   map[string]map[string]bool // undirected
	// terms holds both ends of every edge of the four maps.
	terms map[string]struct{}
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{
		syn:   map[string]map[string]bool{},
		hyper: map[string]map[string]bool{},
		acro:  map[string]map[string]bool{},
		rel:   map[string]map[string]bool{},
		terms: map[string]struct{}{},
	}
}

// addEdge records the edge a → b in m and both its ends as terms; every
// Add method and Merge store their edges through it.
func (t *Thesaurus) addEdge(m map[string]map[string]bool, a, b string) {
	if m[a] == nil {
		m[a] = map[string]bool{}
	}
	m[a][b] = true
	t.terms[a] = struct{}{}
	t.terms[b] = struct{}{}
}

// AddSynonym records a ↔ b as synonyms (symmetric).
func (t *Thesaurus) AddSynonym(a, b string) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" || na == nb {
		return
	}
	t.addEdge(t.syn, na, nb)
	t.addEdge(t.syn, nb, na)
}

// AddSynonymGroup records every pair in words as synonyms.
func (t *Thesaurus) AddSynonymGroup(words ...string) {
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			t.AddSynonym(words[i], words[j])
		}
	}
}

// AddHypernym records general as a hypernym of each specific term:
// "date" generalizes "purchase date".
func (t *Thesaurus) AddHypernym(general string, specifics ...string) {
	ng := Normalize(general)
	for _, s := range specifics {
		ns := Normalize(s)
		if ng == "" || ns == "" || ng == ns {
			continue
		}
		t.addEdge(t.hyper, ng, ns)
	}
}

// AddAcronym records short as an acronym/abbreviation of long (symmetric
// lookup): AddAcronym("UOM", "unit of measure").
func (t *Thesaurus) AddAcronym(short, long string) {
	ns, nl := Normalize(short), Normalize(long)
	if ns == "" || nl == "" || ns == nl {
		return
	}
	t.addEdge(t.acro, ns, nl)
	t.addEdge(t.acro, nl, ns)
}

// AddRelated records a ↔ b as semantically related but not synonymous
// (symmetric): a relaxed label match.
func (t *Thesaurus) AddRelated(a, b string) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" || na == nb {
		return
	}
	t.addEdge(t.rel, na, nb)
	t.addEdge(t.rel, nb, na)
}

// AddRelatedGroup records every pair in words as related.
func (t *Thesaurus) AddRelatedGroup(words ...string) {
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			t.AddRelated(words[i], words[j])
		}
	}
}

// Relate returns the strongest recorded relation between terms a and b,
// checking synonym, then acronym, then hypernym/hyponym, then related.
// Terms are normalized; identical normalized terms return RelSynonym.
// Callers that already hold normalized forms should use RelateNormalized.
func (t *Thesaurus) Relate(a, b string) Relation {
	return t.RelateNormalized(Normalize(a), Normalize(b))
}

// RelateNormalized is Relate over terms already in Normalize form (lowercase,
// separator-free). It avoids re-tokenizing on hot paths.
func (t *Thesaurus) RelateNormalized(na, nb string) Relation {
	if na == "" || nb == "" {
		return RelNone
	}
	if na == nb {
		return RelSynonym
	}
	if r := t.relate(na, nb); r != RelNone {
		return r
	}
	// Plural-insensitive fallback: "items" relates as "item" does.
	sa, sb := Singularize(na), Singularize(nb)
	if sa != na || sb != nb {
		if sa == sb {
			return RelSynonym
		}
		return t.relate(sa, sb)
	}
	return RelNone
}

func (t *Thesaurus) relate(na, nb string) Relation {
	if t.syn[na][nb] {
		return RelSynonym
	}
	if t.acro[na][nb] {
		return RelAcronym
	}
	if t.hyper[na][nb] {
		return RelHypernym
	}
	if t.hyper[nb][na] {
		return RelHyponym
	}
	if t.rel[na][nb] {
		return RelRelated
	}
	return RelNone
}

// KnownNormalized reports whether the normalized term — or its singular
// form — is an end of some relation edge. For a pair whose singular forms
// differ, RelateNormalized can return a relation only when both terms are
// known, so hot paths that have already tested singular equality skip the
// five map probes unless both flags are set:
//
//   - every relation relate finds is an edge between its two arguments,
//     so both arguments are terms;
//   - the singular fallback relates the two singular forms, so again both
//     are terms, and KnownNormalized probes each term's singular form;
//   - equal singular forms, the fallback's one other way to relate, are
//     what those paths tested first.
func (t *Thesaurus) KnownNormalized(n string) bool {
	if _, ok := t.terms[n]; ok {
		return true
	}
	if s := Singularize(n); s != n {
		_, ok := t.terms[s]
		return ok
	}
	return false
}

// Size returns the number of directed relation edges stored, a cheap
// indicator for tests and diagnostics.
func (t *Thesaurus) Size() int {
	n := 0
	for _, m := range t.syn {
		n += len(m)
	}
	for _, m := range t.hyper {
		n += len(m)
	}
	for _, m := range t.acro {
		n += len(m)
	}
	for _, m := range t.rel {
		n += len(m)
	}
	return n
}

// Merge copies every relation of other into t.
func (t *Thesaurus) Merge(other *Thesaurus) {
	if other == nil {
		return
	}
	for a, m := range other.syn {
		for b := range m {
			t.addEdge(t.syn, a, b)
		}
	}
	for a, m := range other.hyper {
		for b := range m {
			t.addEdge(t.hyper, a, b)
		}
	}
	for a, m := range other.acro {
		for b := range m {
			t.addEdge(t.acro, a, b)
		}
	}
	for a, m := range other.rel {
		for b := range m {
			t.addEdge(t.rel, a, b)
		}
	}
}
