package core

import (
	"sync"

	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// Arena-style buffer reuse for the pair-table fill. A match's dense state
// has a lifetime of one match, and it comes in two slab sets drawn from
// two pools. The table slabs are the pair table's two planes (a float64
// value and a flag byte per cell) and the per-side index structures of the
// iterative fill: 9 bytes per cell plus O(nodes), 7.8 MB for Protein
// (231×3753 cells). The kernel slabs are the label and property score
// planes and the kernel fill's scratch; nothing reads them once the sweep
// has run, except the accessors that recompute a full QoM (Pair, TopPairs,
// Explain).
//
// A Result acquires its table slabs at construction and its kernel slabs
// when it builds a kernel. Release returns both wholesale; Park returns
// only the kernel slabs, so a table parked as rematch state keeps just what
// Rematch reads. Unreleased Results stay correct and are simply collected
// by the GC (the pools never see them); releasing is an optimization each
// table's owner applies when its match ends: the Engine, the Hybrid
// adapter's Match/TreeScore/Pairs, and the benchmarks.
//
// Reused slabs are NOT zeroed except where a reader could observe stale
// data: the flag bytes (they gate every table read) and the index maps
// (they alias schema nodes). Cell values are written before the fill order
// lets anything read them, and kernel planes only expose logical entries
// that the fill always writes.
type tableBuffers struct {
	values []float64
	flags  []uint8
	kidIdx []int32
	kids   [][]int32
	levels []int32
	leaves []bool

	srcIdx, tgtIdx map[*xmltree.Node]int
}

// kernelBuffers holds the kernel's score/kind planes (see simKernel) and
// the kernel fill's scratch: one label-row scratch per worker and the type
// table.
type kernelBuffers struct {
	lScore []float64
	lKind  []uint8
	pScore []float64
	pKind  []uint8
	rows   []lingo.RowScratch
	types  typeTable
}

var (
	tablePool  = sync.Pool{New: func() any { return new(tableBuffers) }}
	kernelPool = sync.Pool{New: func() any { return new(kernelBuffers) }}
)

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified — callers own initialization.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquireBuffers takes a table slab set from the pool and sizes it for an
// n×m pair table, wiring the slabs into r. The index maps and the flag
// bytes are cleared; everything else is raw capacity.
func acquireBuffers(r *Result) *tableBuffers {
	b := tablePool.Get().(*tableBuffers)
	n, m := len(r.srcNodes), len(r.tgtNodes)
	cells := n * m

	b.values = grow(b.values, cells)
	b.flags = grow(b.flags, cells)
	clear(b.flags)
	r.values, r.flags = b.values, b.flags

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

// releaseKernel drops r's kernel and returns its slabs to the pool.
func (r *Result) releaseKernel() {
	r.kern = nil
	if r.kbuf != nil {
		kernelPool.Put(r.kbuf)
		r.kbuf = nil
	}
}

// Park returns the Result's kernel slabs for reuse and keeps its pair
// table: the two planes, the per-side lists and Root, which is what
// Select and a later Rematch read. A parked table costs 9 bytes per cell
// plus O(nodes). The cell accessors (Pair, Pairs, TopPairs, BestForSource,
// Explain) need the kernel to recompute a full QoM, so on a parked Result
// they report not-found, as after Release. Park is a no-op on a released
// Result.
func (r *Result) Park() {
	if r.buf == nil {
		return
	}
	r.releaseKernel()
	// A pooled slab may be far larger than this table; keep only its cells.
	if cap(r.values) > len(r.values) {
		values, flags := make([]float64, len(r.values)), make([]uint8, len(r.flags))
		copy(values, r.values)
		copy(flags, r.flags)
		r.values, r.flags = values, flags
		r.buf.values, r.buf.flags = values, flags
	}
}

// Release returns the Result's pooled buffers for reuse by later matches.
// The Result must not be used afterwards: its table, index and kernel
// state are detached (lookups report not-found rather than reading
// recycled memory), only the scalar fields — Root, Source, Target — stay
// meaningful. Release is idempotent and a no-op on a nil Result; never
// releasing is safe and merely forgoes the reuse.
func (r *Result) Release() {
	if r == nil || r.buf == nil {
		return
	}
	r.releaseKernel()
	b := r.buf
	r.buf = nil
	// Drop node references so a pooled buffer does not pin schema trees.
	clear(b.srcIdx)
	clear(b.tgtIdx)
	r.values, r.flags = nil, nil
	r.srcIdx, r.tgtIdx = nil, nil
	r.srcKids, r.tgtKids = nil, nil
	r.srcLevels, r.tgtLevels = nil, nil
	r.srcLeaf, r.tgtLeaf = nil, nil
	tablePool.Put(b)
}
