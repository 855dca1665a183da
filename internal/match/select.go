package match

import (
	"sort"

	"qmatch/internal/xmltree"
)

// ScoredPair is one entry of a matcher's pair table, ready for selection.
type ScoredPair struct {
	Source, Target *xmltree.Node
	Score          float64
}

// Select derives a one-to-one correspondence set from a scored pair table:
// pairs are considered in descending score order (ties broken by source
// then target path for determinism) and accepted greedily when both
// endpoints are still unmatched and the score clears the threshold. The
// result is a partial injective mapping — the stable selection strategy
// CUPID-family matchers use (DESIGN.md §5.5).
func Select(pairs []ScoredPair, threshold float64) []Correspondence {
	sorted := make([]ScoredPair, 0, len(pairs))
	for _, p := range pairs {
		if p.Score >= threshold && p.Source != nil && p.Target != nil {
			sorted = append(sorted, p)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		si, sj := sorted[i].Source.Path(), sorted[j].Source.Path()
		if si != sj {
			return si < sj
		}
		return sorted[i].Target.Path() < sorted[j].Target.Path()
	})
	usedS := map[*xmltree.Node]bool{}
	usedT := map[*xmltree.Node]bool{}
	var out []Correspondence
	for _, p := range sorted {
		if usedS[p.Source] || usedT[p.Target] {
			continue
		}
		usedS[p.Source], usedT[p.Target] = true, true
		out = append(out, Correspondence{
			Source: p.Source.Path(),
			Target: p.Target.Path(),
			Score:  p.Score,
		})
	}
	return out
}

// SelectAll accepts every pair above the threshold without the one-to-one
// constraint — the ablation counterpart of Select.
func SelectAll(pairs []ScoredPair, threshold float64) []Correspondence {
	var out []Correspondence
	for _, p := range pairs {
		if p.Score >= threshold && p.Source != nil && p.Target != nil {
			out = append(out, Correspondence{
				Source: p.Source.Path(),
				Target: p.Target.Path(),
				Score:  p.Score,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Target < out[j].Target
	})
	return out
}
