package core

import (
	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/xmltree"
)

// Hybrid adapts the QMatch Matcher to the match.Algorithm interface shared
// with the linguistic and structural baselines: correspondences are the
// one-to-one selection over the QoM pair table, and the tree score is the
// root QoM — "the total match value (QoM) for the entire source schema
// tree ... presented to the user" (paper §4).
type Hybrid struct {
	*Matcher

	// Keyed result memo: Match followed by TreeScore on the same pair
	// (the common evaluation pattern) computes the pair table once, and
	// alternating among several schema pairs keeps every table warm.
	// The memo grows with the number of distinct pairs matched; call
	// ResetCache to drop it. Like the underlying NameMatcher caches,
	// a Hybrid is not safe for concurrent use — wrap it in the public
	// package's Engine (or give each goroutine its own instance) for
	// concurrent matching.
	results map[resultKey]*Result
	// SelectionThreshold is the minimum QoM for a pair to be reported as
	// a correspondence. Default 0.75 — above the 0.7 floor that two
	// same-typed but semantically unrelated leaves reach on structural
	// axes alone, below the ~0.9 of a relaxed label match, with room for
	// inner-node matches whose children axis is diluted by unmatched
	// source children.
	SelectionThreshold float64
	// RequireLabelEvidence gates selection on the label axis: pairs
	// whose labels do not match at all (LabelKind == None) are never
	// reported as correspondences, however high their structural score.
	// The QoM *value* still propagates structure-only overlap through
	// the children axis (Fig. 9); the gate only filters the reported
	// mapping, where structural coincidence (same types, same order)
	// is overwhelmingly noise. Default true; disable for the ablation.
	RequireLabelEvidence bool
}

// NewHybrid returns the hybrid QMatch algorithm with default tuning over
// the given thesaurus (nil selects the built-in default).
func NewHybrid(th *lingo.Thesaurus) *Hybrid {
	return &Hybrid{
		Matcher:              NewMatcher(th),
		SelectionThreshold:   0.75,
		RequireLabelEvidence: true,
	}
}

// Name implements match.Algorithm.
func (h *Hybrid) Name() string { return "hybrid" }

// resultKey identifies one memoized pair table by tree identity.
type resultKey struct{ src, tgt *xmltree.Node }

// ResetCache drops the memoized pair tables, releasing their pooled
// buffers for the next match. Timing harnesses call this between
// repetitions so each measurement covers a full computation; the Engine
// calls it between jobs and at handle release.
func (h *Hybrid) ResetCache() {
	for _, r := range h.results {
		r.Release()
	}
	h.results = nil
}

// tree returns the pair table for src/tgt, reusing the memoized result
// when the same pointers are matched again. Callers must not mutate the
// trees between calls.
func (h *Hybrid) tree(src, tgt *xmltree.Node) *Result {
	key := resultKey{src, tgt}
	if res, ok := h.results[key]; ok {
		return res
	}
	res := h.Tree(src, tgt)
	if h.results == nil {
		h.results = make(map[resultKey]*Result)
	}
	h.results[key] = res
	return res
}

// Match implements match.Algorithm.
func (h *Hybrid) Match(src, tgt *xmltree.Node) []match.Correspondence {
	res := h.tree(src, tgt)
	pairs := res.Pairs()
	scored := make([]match.ScoredPair, 0, len(pairs))
	for _, p := range pairs {
		if h.RequireLabelEvidence && p.QoM.LabelKind == lingo.None {
			continue
		}
		scored = append(scored, match.ScoredPair{Source: p.Source, Target: p.Target, Score: p.QoM.Value})
	}
	return match.SelectTraced(scored, h.SelectionThreshold, h.Trace)
}

// Pairs returns the full QoM table as scored pairs — the granularity
// composite matchers aggregate over.
func (h *Hybrid) Pairs(src, tgt *xmltree.Node) []match.ScoredPair {
	pairs := h.tree(src, tgt).Pairs()
	out := make([]match.ScoredPair, len(pairs))
	for i, p := range pairs {
		out[i] = match.ScoredPair{Source: p.Source, Target: p.Target, Score: p.QoM.Value}
	}
	return out
}

// TreeScore implements match.Algorithm.
func (h *Hybrid) TreeScore(src, tgt *xmltree.Node) float64 {
	return h.tree(src, tgt).Root.Value
}

var _ match.Algorithm = (*Hybrid)(nil)
