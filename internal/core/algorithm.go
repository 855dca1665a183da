package core

import (
	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// Hybrid adapts the QMatch Matcher to the match.Algorithm interface shared
// with the linguistic and structural baselines: correspondences are the
// one-to-one selection over the QoM pair table, and the tree score is the
// root QoM — "the total match value (QoM) for the entire source schema
// tree ... presented to the user" (paper §4). Match, TreeScore and Pairs
// each fill one pair table and release it before they return, so a Hybrid
// keeps no table between calls; a caller that wants both outputs of one
// table fills it with Tree and reads them itself (Select, Result.Root).
// Like the underlying NameMatcher caches, a Hybrid is not safe for
// concurrent use — wrap it in the public package's Engine (or give each
// goroutine its own instance) for concurrent matching.
type Hybrid struct {
	*Matcher

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

// Select derives the one-to-one correspondences from a filled pair table
// in place. One walk over the two planes keeps the computed cells that
// carry label evidence (when RequireLabelEvidence is set) and reach
// SelectionThreshold as match.Select candidates, so selection copies
// candidates, not cells. The select span counts every cell that passes the
// label gate, below the threshold too, and the correspondences accepted.
func (h *Hybrid) Select(r *Result) []match.Correspondence {
	sp := h.Trace.StartSpan(obs.PhaseSelect)
	var cands []match.ScoredPair
	var gated int64
	m := len(r.tgtNodes)
	for base := 0; base < len(r.values); base += m {
		s := r.srcNodes[base/m]
		flags, values := r.flags[base:base+m], r.values[base:base+m]
		for j, t := range r.tgtNodes {
			// The label gate wants a label kind other than None (zero).
			if f := flags[j]; f&flagDone == 0 || (h.RequireLabelEvidence && f&flagKind == 0) {
				continue
			}
			gated++
			if v := values[j]; v >= h.SelectionThreshold {
				cands = append(cands, match.ScoredPair{Source: s, Target: t, Score: v})
			}
		}
	}
	out := match.Select(cands, h.SelectionThreshold)
	if sp != nil {
		sp.SetCells(gated)
		sp.SetSelected(len(out))
	}
	sp.End()
	return out
}

// Match implements match.Algorithm.
func (h *Hybrid) Match(src, tgt *xmltree.Node) []match.Correspondence {
	r := h.Tree(src, tgt)
	defer r.Release()
	return h.Select(r)
}

// Pairs returns the full QoM table as scored pairs — the granularity
// composite matchers aggregate over.
func (h *Hybrid) Pairs(src, tgt *xmltree.Node) []match.ScoredPair {
	r := h.Tree(src, tgt)
	defer r.Release()
	out := make([]match.ScoredPair, 0, len(r.values))
	m := len(r.tgtNodes)
	for idx, f := range r.flags {
		if f&flagDone != 0 {
			out = append(out, match.ScoredPair{Source: r.srcNodes[idx/m], Target: r.tgtNodes[idx%m], Score: r.values[idx]})
		}
	}
	return out
}

// TreeScore implements match.Algorithm.
func (h *Hybrid) TreeScore(src, tgt *xmltree.Node) float64 {
	r := h.Tree(src, tgt)
	defer r.Release()
	return r.Root.Value
}

var _ match.Algorithm = (*Hybrid)(nil)
