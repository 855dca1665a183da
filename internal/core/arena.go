package core

import (
	"sync"

	"qmatch/internal/xmltree"
)

// Arena-style buffer reuse for the pair-table fill. A protein-sized match
// allocates ~100 MB of dense state — the QoM table, done flags, kernel
// score planes, and the per-side index structures of the iterative fill —
// all of it with a lifetime of exactly one match. matchBuffers bundles
// those slabs so one pool Get/Put recycles the whole set: a Result
// acquires a buffer set at construction and returns it wholesale through
// Release. Unreleased Results stay correct and are simply collected by
// the GC (the pool never sees them); releasing is an optimization the
// Engine, the Hybrid memo, and the benchmarks apply at their natural
// end-of-match points.
//
// Reused slabs are NOT zeroed except where a reader could observe stale
// data: done flags (they gate every table read) and the index maps (they
// alias schema nodes). Table cells are written before the fill order lets
// anything read them, and kernel planes only expose logical entries that
// the fill always writes.
type matchBuffers struct {
	table  []QoM
	done   []bool
	kidIdx []int32
	kids   [][]int32
	levels []int32
	leaves []bool

	srcIdx, tgtIdx map[*xmltree.Node]int

	// Kernel score/kind planes (see simKernel).
	lScore []float64
	lKind  []uint8
	pScore []float64
	pKind  []uint8
}

var bufPool = sync.Pool{New: func() any { return new(matchBuffers) }}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified — callers own initialization.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquireBuffers takes a buffer set from the pool and sizes it for an
// n×m pair table, wiring the slabs into r. The index maps are cleared;
// done flags are zeroed; everything else is raw capacity.
func acquireBuffers(r *Result) *matchBuffers {
	b := bufPool.Get().(*matchBuffers)
	n, m := len(r.srcNodes), len(r.tgtNodes)
	cells := n * m

	b.table = grow(b.table, cells)
	b.done = grow(b.done, cells)
	clear(b.done)
	r.table, r.done = b.table, b.done

	if b.srcIdx == nil {
		b.srcIdx = make(map[*xmltree.Node]int, n)
	} else {
		clear(b.srcIdx)
	}
	if b.tgtIdx == nil {
		b.tgtIdx = make(map[*xmltree.Node]int, m)
	} else {
		clear(b.tgtIdx)
	}
	r.srcIdx, r.tgtIdx = b.srcIdx, b.tgtIdx

	// Child index lists: every node except the two roots is someone's
	// child, so the backing store is exactly (n-1)+(m-1) entries —
	// reserving it up front keeps the per-node subslices stable.
	need := n + m - 2
	if cap(b.kidIdx) < need {
		b.kidIdx = make([]int32, 0, need)
	}
	b.kidIdx = b.kidIdx[:0]
	b.kids = grow(b.kids, n+m)
	b.levels = grow(b.levels, n+m)
	b.leaves = grow(b.leaves, n+m)
	r.srcKids, r.tgtKids = b.kids[:n:n], b.kids[n:]
	r.srcLevels, r.tgtLevels = b.levels[:n:n], b.levels[n:]
	r.srcLeaf, r.tgtLeaf = b.leaves[:n:n], b.leaves[n:]
	return b
}

// Release returns the Result's pooled buffers for reuse by later matches.
// The Result must not be used afterwards: its table, index and kernel
// state are detached (lookups report not-found rather than reading
// recycled memory), only the scalar fields — Root, Source, Target — stay
// meaningful. Release is idempotent; never releasing is safe and merely
// forgoes the reuse.
func (r *Result) Release() {
	b := r.buf
	if b == nil {
		return
	}
	r.buf = nil
	// Drop node references so a pooled buffer does not pin schema trees.
	clear(b.srcIdx)
	clear(b.tgtIdx)
	r.table, r.done = nil, nil
	r.srcIdx, r.tgtIdx = nil, nil
	r.srcKids, r.tgtKids = nil, nil
	r.srcLevels, r.tgtLevels = nil, nil
	r.srcLeaf, r.tgtLeaf = nil, nil
	r.kern = nil
	bufPool.Put(b)
}
