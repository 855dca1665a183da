package core

import (
	"reflect"
	"sort"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

// The interned kernel must not change a single bit of any pair table:
// every corpus workload fills exactly the paper oracle's table. Each result
// is released once checked, so the protein run holds one table beside the
// oracle's memo.
func TestKernelEquivalence(t *testing.T) {
	pairs := []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	}
	if !testing.Short() {
		pairs = append(pairs, dataset.ProteinPair())
	}
	for _, p := range pairs {
		r := NewMatcher(nil).Tree(p.Source, p.Target)
		checkOracle(t, p.Name+" kernel", newOracle(NewMatcher(nil)), r)
		r.Release()
	}
}

// The parallel fill (kernel rows and level sweep fanned over the worker
// pool) must also equal the oracle. 81×81 nodes crosses parallelCutoff.
func TestKernelEquivalenceParallel(t *testing.T) {
	src, tgt := wide("L", 80), wide("R", 80)
	if cells := src.Size() * tgt.Size(); cells < parallelCutoff {
		t.Fatalf("workload has %d cells, below the parallel cutoff %d", cells, parallelCutoff)
	}
	par := NewMatcher(nil)
	par.Parallelism = 4
	checkOracle(t, "parallel kernel", newOracle(par), par.Tree(src, tgt))
}

// A node outside the matched trees must yield the zero QoM, not a panic
// from the -1 table index Result.cell would produce.
func TestPairForeignNode(t *testing.T) {
	p := dataset.DCMDPair()
	r := NewMatcher(nil).Tree(p.Source, p.Target)
	foreign := xmltree.New("Stranger", xmltree.Elem("string"))
	if q, ok := r.Pair(foreign, p.Target); ok || q != (QoM{}) {
		t.Errorf("Pair(foreign, target) = %+v, %v, want zero, false", q, ok)
	}
	if q, ok := r.Pair(p.Source, foreign); ok || q != (QoM{}) {
		t.Errorf("Pair(source, foreign) = %+v, %v, want zero, false", q, ok)
	}
}

// topPairsReference is the pre-heap implementation: materialize every pair,
// stable-sort descending by value (pre-order position breaks ties), take n.
func topPairsReference(r *Result, n int) []PairQoM {
	pairs := r.Pairs()
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].QoM.Value > pairs[j].QoM.Value })
	if n > len(pairs) {
		n = len(pairs)
	}
	if n < 0 {
		n = 0
	}
	return pairs[:n]
}

// The bounded-heap TopPairs must reproduce the sort-based ordering exactly,
// ties included — wide trees make nearly every cell a tie.
func TestTopPairsMatchesSort(t *testing.T) {
	results := []*Result{
		NewMatcher(nil).Tree(dataset.DCMDPair().Source, dataset.DCMDPair().Target),
		NewMatcher(nil).Tree(wide("L", 20), wide("R", 20)),
	}
	for ri, r := range results {
		for _, n := range []int{1, 3, 10, 57, len(r.values), len(r.values) + 100} {
			got := r.TopPairs(n)
			want := topPairsReference(r, n)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result %d: TopPairs(%d) diverges from sort-based selection", ri, n)
			}
		}
		if got := r.TopPairs(0); got != nil {
			t.Errorf("result %d: TopPairs(0) = %d pairs, want none", ri, len(got))
		}
		if got := r.TopPairs(-3); got != nil {
			t.Errorf("result %d: TopPairs(-3) = %d pairs, want none", ri, len(got))
		}
	}
}

// Allocation regression gate for the hybrid hot loop. With the pooled
// arena buffers (tableBuffers, kernelBuffers) a released warm DCMD fill runs at ~50
// allocations — what remains is the interner, kernel bookkeeping and the
// Result header, not per-cell garbage. The 700 ceiling trips on any return
// of per-cell allocation or a fill that stops drawing from the pool,
// without flaking on runtime noise. Release inside the measured loop is
// what keeps the pool warm: dropping it is itself a regression this gate
// should catch, since unreleased tables fall to the GC and every run pays
// the arena over again.
func TestTreeAllocsBounded(t *testing.T) {
	p := dataset.DCMDPair()
	m := NewMatcher(nil)
	m.Tree(p.Source, p.Target).Release() // warm memo caches and the buffer pool
	allocs := testing.AllocsPerRun(5, func() {
		m.Tree(p.Source, p.Target).Release()
	})
	if allocs > 700 {
		t.Errorf("DCMD Tree+Release = %.0f allocs/run, regression ceiling is 700", allocs)
	}
}
