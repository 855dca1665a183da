package lingo_test

import (
	"math"
	"math/bits"
	"runtime"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// boundPairs returns the label pairs of TestJaroWinklerBound as normal
// forms: every ordered pair of the kernel's fuzz pool, every source label
// against every target label of each built-in dataset pair, and every
// label of the other built-in schemas against the pool, both ways. Empty
// normal forms are dropped, as the matcher drops them.
func boundPairs(t *testing.T) [][2]string {
	t.Helper()
	norms := func(labels []string) []string {
		seen := map[string]bool{}
		var out []string
		for _, l := range labels {
			if n := lingo.Normalize(l); n != "" && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		return out
	}
	labelsOf := func(root *xmltree.Node) []string {
		var out []string
		for _, n := range root.Nodes() {
			out = append(out, n.Label)
		}
		return out
	}
	var pairs [][2]string
	cross := func(as, bs []string) {
		for _, a := range as {
			for _, b := range bs {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	pool := norms(lingo.KernelPool)
	for _, a := range pool {
		for _, b := range pool {
			pairs = append(pairs, [2]string{a, b})
		}
	}
	inPair := map[string]bool{}
	for _, p := range dataset.Pairs() {
		cross(norms(labelsOf(p.Source)), norms(labelsOf(p.Target)))
		inPair[p.Source.Label], inPair[p.Target.Label] = true, true
	}
	for _, name := range dataset.Names() {
		root, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !inPair[root.Label] {
			cross(norms(labelsOf(root)), pool)
			cross(pool, norms(labelsOf(root)))
		}
	}
	return pairs
}

// unboundedSimFromDice is simFromDice without the Jaro-Winkler bound,
// given the pair's Jaro-Winkler value jw: the full value decides every
// pair past the Dice test.
func unboundedSimFromDice(jw, tg float64) (float64, bool) {
	if (1+tg)/2 < lingo.StringSimFloor {
		return 0, false
	}
	if jw < 0.5 {
		return 0, false
	}
	s := (jw + tg) / 2
	return s, s >= lingo.StringSimFloor
}

// TestJaroWinklerBound holds the Jaro-Winkler bound to the value it bounds
// over every pair of boundPairs, and simFromDice to its unbounded form:
// the same verdict, and the same value where it reaches the floor (below
// it, every caller discards the value). Besides each pair's own trigram
// Dice, simFromDice gets the Dice values that put (jw+tg)/2 exactly at the
// floor and one ulp either side, where a bound without enough slack for
// the Winkler step's rounding would reject a pair that reaches the floor.
// The bound must also prove at least half of the pairs past the Dice test
// below the floor, or it would pass by never firing.
func TestJaroWinklerBound(t *testing.T) {
	type input struct {
		runes []rune
		grams []uint64
	}
	inputs := map[string]input{}
	pairs := boundPairs(t)
	for _, p := range pairs {
		for _, s := range p {
			if _, ok := inputs[s]; !ok {
				inputs[s] = input{[]rune(s), lingo.Grams(s)}
			}
		}
	}
	var below, proved int
	for _, p := range pairs {
		a, b := inputs[p[0]], inputs[p[1]]
		jw := lingo.JaroWinklerRunes(a.runes, b.runes)
		ub, ok := lingo.JaroWinklerBound(a.runes, b.runes)
		if ok && ub < jw {
			t.Fatalf("(%q, %q): bound %v below Jaro-Winkler %v", p[0], p[1], ub, jw)
		}
		dice := lingo.Dice(a.grams, b.grams)
		if (1+dice)/2 >= lingo.StringSimFloor {
			if _, pass := unboundedSimFromDice(jw, dice); !pass {
				below++
				if ok && (ub < 0.5 || (ub+dice)/2 < lingo.StringSimFloor) {
					proved++
				}
			}
		}
		edge := 2*lingo.StringSimFloor - jw
		for _, tg := range []float64{dice, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2)} {
			if tg < 0 || tg > 1 {
				continue
			}
			s, pass := lingo.SimFromDice(a.runes, b.runes, tg)
			ws, wpass := unboundedSimFromDice(jw, tg)
			if pass != wpass || pass && s != ws {
				t.Fatalf("(%q, %q), tg %v: simFromDice (%v, %v), unbounded (%v, %v)", p[0], p[1], tg, s, pass, ws, wpass)
			}
		}
	}
	t.Logf("%d pairs: the bound proves %d of %d pairs past the Dice test below the floor", len(pairs), proved, below)
	if below == 0 || 2*proved < below {
		t.Errorf("the bound proves %d of %d pairs past the Dice test below the floor, want at least half", proved, below)
	}
}

// scorerVocabularies returns the fixed 80×1000-label vocabulary pair of the
// candidate tests: the labels of two synthetic schemas of the benchmark's
// match-large shape.
func scorerVocabularies() (src, tgt []string) {
	labels := func(root *xmltree.Node) []string {
		var out []string
		for _, n := range root.Nodes() {
			out = append(out, n.Label)
		}
		return out
	}
	return labels(synth.Generate(synth.Config{Seed: 11, Elements: 80})),
		labels(synth.Generate(synth.Config{Seed: 12, Elements: 1000}))
}

// TestCandidateColumnsSparse guards against a silent return to the dense
// walk: on a vocabulary pair of the benchmark's match-large shape, the
// candidate-marking step leaves at most 15% of each row's columns, in
// either direction. (FuzzKernel holds the rows it does visit to Match.)
func TestCandidateColumnsSparse(t *testing.T) {
	src, tgt := scorerVocabularies()
	if len(src) != 80 || len(tgt) != 1000 {
		t.Fatalf("vocabularies of %d and %d labels, want 80 and 1000", len(src), len(tgt))
	}
	m := lingo.NewNameMatcher(lingo.Default())
	for _, dir := range [][2][]string{{src, tgt}, {tgt, src}} {
		ks := m.NewKernelScorer(dir[0], dir[1], nil)
		var sc lingo.RowScratch
		total := 0
		for i, label := range dir[0] {
			marked := 0
			for _, w := range ks.MarkCandidates(int32(i), &sc) {
				marked += bits.OnesCount64(w)
			}
			if len(dir[1]) == 1000 && 100*marked > 15*len(dir[1]) {
				t.Errorf("row %q marks %d of %d columns, want at most 15%%", label, marked, len(dir[1]))
			}
			total += marked
		}
		t.Logf("%d×%d labels: %.1f%% of the pairs are candidates", len(dir[0]), len(dir[1]),
			100*float64(total)/float64(len(dir[0])*len(dir[1])))
		ks.Release()
	}
}

// TestKernelScorerAllocsBounded checks that a warm scorer allocates
// nothing: building it over the vocabulary pair of the candidate tests,
// scoring every row and releasing it reuse the pooled scorer buffers and
// the caller's row scratch.
func TestKernelScorerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool retention and alloc counts")
	}
	src, tgt := scorerVocabularies()
	m := lingo.NewNameMatcher(lingo.Default())
	var sc lingo.RowScratch
	matches := 0
	emit := func(int32, float64, lingo.Kind) { matches++ }
	run := func() {
		ks := m.NewKernelScorer(src, tgt, nil)
		for i := range src {
			ks.ScoreRow(int32(i), &sc, emit)
		}
		ks.Release()
	}
	// Warm the matcher's memos, the scorer pool and the scratch. A
	// collection may empty the pool, so the measured runs start on a
	// scorer whose buffers have just been sized.
	run()
	runtime.GC()
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("warm NewKernelScorer, ScoreRow and Release = %.0f allocs/run, want 0", allocs)
	}
	if matches == 0 {
		t.Error("no pair matched; the vocabulary pair exercises nothing")
	}
}
