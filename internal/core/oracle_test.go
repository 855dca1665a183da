package core

import (
	"fmt"
	"math/rand"
	"testing"

	"qmatch/internal/lingo"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// oracle is the paper oracle: a deliberately naive, recursive
// transcription of the QMatch procedure (Fig. 3) and its match model
// (Eq. 1–6). It is the single reference every fast fill path — the
// one-worker and level-parallel sweeps, the kernel, the compiled
// vocabularies, arena reuse and the incremental re-match — is checked
// against, so none of them is only ever compared with a neighbouring fast
// path.
//
// It memoises in a map keyed by node pair, scores labels with its own
// fresh NameMatcher, properties with MatchProperties and the level axis
// with levelEqual, and shares no kernel, arena, pre-order index or Result
// with the production fill. Only the tuning — normalized weights, child
// threshold, thesaurus — is read from the matcher under test.
type oracle struct {
	w         AxisWeights
	threshold float64
	names     *lingo.NameMatcher
	memo      map[[2]*xmltree.Node]QoM
}

func newOracle(m *Matcher) *oracle {
	return &oracle{
		w:         m.Weights.Normalized(),
		threshold: m.Threshold,
		names:     lingo.NewNameMatcher(m.Names.Thesaurus),
		memo:      map[[2]*xmltree.Node]QoM{},
	}
}

// qom is Fig. 3's TreeMatch(s, t): the QoM of the node pair (s, t),
// computed from the QoMs of its child pairs.
func (o *oracle) qom(s, t *xmltree.Node) QoM {
	key := [2]*xmltree.Node{s, t}
	if q, ok := o.memo[key]; ok {
		return q
	}
	var q QoM
	// The atomic axes: linguistic label match and property match.
	q.Label, q.LabelKind = o.names.Match(s.Label, t.Label)
	p := MatchProperties(s.Props, t.Props)
	q.Properties, q.PropertiesKind = p.Score, p.Kind

	if s.IsLeaf() && t.IsLeaf() {
		// Eq. 2: two leaves match exactly on level and children by
		// default, so QoM = WL·QoML + WP·QoMP + C with C = WH + WC.
		q.Leaf = true
		q.LevelExact, q.Level = true, 1
		q.SubtreeWeight, q.CardinalityRatio, q.Children = 1, 1, 1
		q.Coverage, q.ChildrenAllExact = Total, true
	} else {
		// The level axis QoMH.
		if levelEqual(s, t) {
			q.LevelExact, q.Level = true, 1
		}
		// The children axis (Eq. 3–5). Each source child takes its best
		// match among the target's children and, when the source child
		// is itself an inner node, the target node (the paper's
		// PurchaseInfo vs Purchase Order case). Children whose best match
		// clears the threshold add its QoM to Rw's sum and count toward
		// Rs; they count as covered when that best match is not NoMatch.
		sum, count, covered, allExact := 0.0, 0, 0, true
		for _, cs := range s.Children {
			var best QoM
			for _, ct := range t.Children {
				if c := o.qom(cs, ct); c.Value > best.Value {
					best = c
				}
			}
			if !cs.IsLeaf() {
				if c := o.qom(cs, t); c.Value > best.Value {
					best = c
				}
			}
			if best.Value >= o.threshold-1e-9 {
				sum += best.Value
				count++
				if best.Class != NoMatch {
					covered++
					allExact = allExact && best.Class == TotalExact
				}
			}
		}
		if n := len(s.Children); n > 0 {
			q.SubtreeWeight = sum / float64(n)               // Eq. 3: Rw
			q.CardinalityRatio = float64(count) / float64(n) // Eq. 4: Rs
			switch {
			case covered == n:
				q.Coverage = Total
			case covered > 0:
				q.Coverage = Partial
			}
		}
		q.Children = (q.SubtreeWeight + q.CardinalityRatio) / 2 // Eq. 5
		q.ChildrenAllExact = allExact && covered > 0
	}

	// Eq. 1/6: the weighted sum of the four axes.
	q.Value = o.w.Label*q.Label + o.w.Properties*q.Properties +
		o.w.Level*q.Level + o.w.Children*q.Children
	q.classify()
	o.memo[key] = q
	return q
}

// checkOracle demands that every cell of r equal, bit for bit, the
// oracle's QoM for the same node pair. It reports the first divergent cell
// only.
func checkOracle(t *testing.T, name string, o *oracle, r *Result) {
	t.Helper()
	if !r.complete() {
		t.Errorf("%s: pair table incomplete", name)
		return
	}
	m := len(r.tgtNodes)
	for i, s := range r.srcNodes {
		for j, tn := range r.tgtNodes {
			if got, want := r.table[i*m+j], o.qom(s, tn); got != want {
				t.Errorf("%s: cell (%s, %s) = %+v, oracle %+v", name, s.Path(), tn.Path(), got, want)
				return
			}
		}
	}
}

// FuzzPairTable draws synthetic schema pairs past the parallel cutoff and
// checks every fill path cell by cell against the paper oracle: Tree at
// every worker count, the compiled-vocabulary path, a warm arena refill,
// and a three-generation incremental re-match chain alternating the
// evolving side. Sizes are bounded so one input runs well under a second.
// The seed corpus lives in testdata/fuzz/FuzzPairTable.
func FuzzPairTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, intensity uint8) {
		src := synth.Generate(synth.Config{
			Seed:        seed,
			Elements:    80 + int(size%48),
			MaxDepth:    3 + int(size%4),
			MaxChildren: 4 + int(size%6),
		})
		tgt, _ := synth.Derive(src, synth.Uniform(seed+1, float64(intensity%51)/100))
		if cells := src.Size() * tgt.Size(); cells < parallelCutoff {
			t.Skipf("%d cells, below the parallel cutoff", cells)
		}
		o := newOracle(NewMatcher(nil))

		for _, par := range []int{1, 2, 4, -1} {
			m := NewMatcher(nil)
			m.Parallelism = par
			checkOracle(t, fmt.Sprintf("Tree at parallelism %d", par), o, m.Tree(src, tgt))
		}

		compiled := map[*xmltree.Node]*Interned{src: Intern(src.Nodes()), tgt: Intern(tgt.Nodes())}
		m := NewMatcher(nil)
		m.Interner = func(root *xmltree.Node) *Interned { return compiled[root] }
		checkOracle(t, "compiled", o, m.Tree(src, tgt))

		m = NewMatcher(nil)
		m.Tree(src, tgt).Release()
		checkOracle(t, "warm arena refill", o, m.Tree(src, tgt))

		rng := rand.New(rand.NewSource(seed))
		m = NewMatcher(nil)
		prev := m.Tree(src, tgt)
		for gen := 1; gen <= 3; gen++ {
			var r *Result
			var stats RematchStats
			if gen%2 == 1 {
				tgt = tgt.Clone()
				mutate(rng, tgt)
				r, stats = m.RematchTarget(prev, tgt)
			} else {
				src = src.Clone()
				mutate(rng, src)
				r, stats = m.RematchSource(prev, src)
			}
			if stats.Full {
				t.Fatalf("generation %d degraded to a full fill", gen)
			}
			checkOracle(t, fmt.Sprintf("rematch generation %d", gen), newOracle(m), r)
			prev = r
		}
	})
}

// mutate applies one to three random schema edits in place: add a leaf,
// rename a node, retype a leaf, or move a subtree under another parent.
// The root is never renamed or moved.
func mutate(rng *rand.Rand, root *xmltree.Node) {
	types := []string{"string", "integer", "decimal", "date", "boolean", "anyURI"}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		nodes := root.Nodes()
		pick := nodes[1+rng.Intn(len(nodes)-1)]
		switch rng.Intn(4) {
		case 0:
			nodes[rng.Intn(len(nodes))].Add(xmltree.New(fmt.Sprintf("Added%d", rng.Intn(1000)), xmltree.Elem(types[rng.Intn(len(types))])))
		case 1:
			// Renaming to another label of the tree keeps the vocabulary
			// overlapping, so label scores repeat across cells.
			pick.Label = nodes[rng.Intn(len(nodes))].Label + "X"
		case 2:
			leaves := root.Leaves()
			leaves[rng.Intn(len(leaves))].Props.Type = types[rng.Intn(len(types))]
		case 3:
			to := nodes[rng.Intn(len(nodes))]
			if to == pick.Parent() || inSubtree(to, pick) {
				continue
			}
			from := pick.Parent()
			for i, c := range from.Children {
				if c == pick {
					from.Children = append(from.Children[:i], from.Children[i+1:]...)
					break
				}
			}
			to.Add(pick)
		}
	}
}

// inSubtree reports whether n lies in the subtree rooted at top.
func inSubtree(n, top *xmltree.Node) bool {
	for ; n != nil; n = n.Parent() {
		if n == top {
			return true
		}
	}
	return false
}
