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
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{
		syn:   map[string]map[string]bool{},
		hyper: map[string]map[string]bool{},
		acro:  map[string]map[string]bool{},
		rel:   map[string]map[string]bool{},
	}
}

func addEdge(m map[string]map[string]bool, a, b string) {
	if m[a] == nil {
		m[a] = map[string]bool{}
	}
	m[a][b] = true
}

// AddSynonym records a ↔ b as synonyms (symmetric).
func (t *Thesaurus) AddSynonym(a, b string) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" || na == nb {
		return
	}
	addEdge(t.syn, na, nb)
	addEdge(t.syn, nb, na)
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
		addEdge(t.hyper, ng, ns)
	}
}

// AddAcronym records short as an acronym/abbreviation of long (symmetric
// lookup): AddAcronym("UOM", "unit of measure").
func (t *Thesaurus) AddAcronym(short, long string) {
	ns, nl := Normalize(short), Normalize(long)
	if ns == "" || nl == "" || ns == nl {
		return
	}
	addEdge(t.acro, ns, nl)
	addEdge(t.acro, nl, ns)
}

// AddRelated records a ↔ b as semantically related but not synonymous
// (symmetric): a relaxed label match.
func (t *Thesaurus) AddRelated(a, b string) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" || na == nb {
		return
	}
	addEdge(t.rel, na, nb)
	addEdge(t.rel, nb, na)
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
// form — is a key of any relation map. When KnownNormalized is false for
// both terms of a pair whose singular forms differ, RelateNormalized is
// provably RelNone: every branch of relate requires one side as a map key
// (hyponym checks hyper keyed by the *other* term, which that term's own
// flag covers), and the singular fallback only consults singular-form
// keys. Hot paths use this to skip the five map probes per pair.
func (t *Thesaurus) KnownNormalized(n string) bool {
	if t.termKey(n) {
		return true
	}
	if s := Singularize(n); s != n {
		return t.termKey(s)
	}
	return false
}

// termKey reports whether n keys any of the relation maps.
func (t *Thesaurus) termKey(n string) bool {
	if _, ok := t.syn[n]; ok {
		return true
	}
	if _, ok := t.acro[n]; ok {
		return true
	}
	if _, ok := t.hyper[n]; ok {
		return true
	}
	_, ok := t.rel[n]
	return ok
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
			addEdge(t.syn, a, b)
		}
	}
	for a, m := range other.hyper {
		for b := range m {
			addEdge(t.hyper, a, b)
		}
	}
	for a, m := range other.acro {
		for b := range m {
			addEdge(t.acro, a, b)
		}
	}
	for a, m := range other.rel {
		for b := range m {
			addEdge(t.rel, a, b)
		}
	}
}
