package core

import (
	"fmt"
	"sort"
	"strings"

	"qmatch/internal/xmltree"
)

// Explain renders a human-readable derivation of one pair's QoM from a
// match result: the per-axis scores and kinds, the weighted contribution
// of each axis, and — for non-leaf pairs — the per-child best matches that
// built the children axis. Matchers are usually judged by their output
// alone; being able to ask "why did these two elements score 0.82?" is
// what makes a matcher debuggable and tunable.
func (m *Matcher) Explain(r *Result, s, t *xmltree.Node) string {
	q, ok := r.Pair(s, t)
	if !ok {
		return fmt.Sprintf("no QoM recorded for %s vs %s", s.Path(), t.Path())
	}
	w := m.Weights.Normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "QoM(%s, %s) = %.3f — %s\n", s.Path(), t.Path(), q.Value, q.Class)
	fmt.Fprintf(&b, "  label      %.3f (%s)%*s × WL=%.2f → %+.3f\n",
		q.Label, q.LabelKind, 9-len(q.LabelKind.String()), "", w.Label, w.Label*q.Label)
	fmt.Fprintf(&b, "  properties %.3f (%s)%*s × WP=%.2f → %+.3f\n",
		q.Properties, q.PropertiesKind, 9-len(q.PropertiesKind.String()), "", w.Properties, w.Properties*q.Properties)
	lvl := "differs"
	if q.LevelExact {
		lvl = "equal"
	}
	if q.Leaf {
		lvl = "leaf (exact by definition)"
	}
	fmt.Fprintf(&b, "  level      %.3f (%s) × WH=%.2f → %+.3f\n", q.Level, lvl, w.Level, w.Level*q.Level)
	fmt.Fprintf(&b, "  children   %.3f (Rw=%.3f Rs=%.3f, coverage %s) × WC=%.2f → %+.3f\n",
		q.Children, q.SubtreeWeight, q.CardinalityRatio, q.Coverage, w.Children, w.Children*q.Children)

	if !q.Leaf && len(s.Children) > 0 {
		b.WriteString("  child contributions (best target per source child, threshold ")
		fmt.Fprintf(&b, "%.2f):\n", m.Threshold)
		for _, cs := range s.Children {
			// The children axis reads only the candidates' values.
			best, bt := 0.0, (*xmltree.Node)(nil)
			consider := func(ct *xmltree.Node) {
				if idx := r.index(cs, ct); idx >= 0 && r.flags[idx]&flagDone != 0 && r.values[idx] > best {
					best, bt = r.values[idx], ct
				}
			}
			for _, ct := range t.Children {
				consider(ct)
			}
			if !cs.IsLeaf() {
				consider(t)
			}
			switch {
			case bt == nil:
				fmt.Fprintf(&b, "    %-30s -> (no candidate)\n", cs.Label)
			case best >= m.Threshold-1e-9:
				fmt.Fprintf(&b, "    %-30s -> %-30s %.3f ✓\n", cs.Label, bt.Label, best)
			default:
				fmt.Fprintf(&b, "    %-30s -> %-30s %.3f below threshold\n", cs.Label, bt.Label, best)
			}
		}
	}
	return b.String()
}

// ExplainTop renders explanations for the n best pairs of a result.
func (m *Matcher) ExplainTop(r *Result, n int) string {
	top := r.TopPairs(n)
	parts := make([]string, 0, len(top))
	for _, p := range top {
		parts = append(parts, m.Explain(r, p.Source, p.Target))
	}
	return strings.Join(parts, "\n")
}

// BestPerSource returns, for every source node, its best-scoring target
// pair, ordered by source pre-order — a compact overview of a result.
func (r *Result) BestPerSource() []PairQoM {
	var out []PairQoM
	for _, s := range r.Source.Nodes() {
		t, q := r.BestForSource(s)
		if t != nil {
			out = append(out, PairQoM{Source: s, Target: t, QoM: q})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Source.Path() < out[j].Source.Path()
	})
	return out
}
