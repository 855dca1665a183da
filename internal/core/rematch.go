package core

import (
	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// Incremental delta re-match. When one side of a previously matched pair
// evolves (the registry's PUT-on-existing-id flow), most of its tree is
// usually untouched — and a pair-table cell depends only on the two
// subtrees below it plus their nesting depths, never on ancestors or
// siblings. So every node of the new tree whose position and whole subtree
// are provably unchanged contributes a column (target side) or row (source
// side) that can be copied verbatim from the previous table; only the
// columns/rows of changed nodes are rescored, plus nothing else — ancestor
// cells of changed nodes live in the changed nodes' own rows/columns
// (ancestors of a changed target node are themselves non-identical
// subtrees, hence dirty), so the dirty set is closed under the children
// axis by construction.
//
// "Provably unchanged" is positional: new node k-th child of its parent
// aligns with the old k-th child, and is self-clean when label, normalized
// properties and child count agree; a subtree is clean when every node in
// it is self-clean. Positional alignment keeps nesting depths equal by
// construction, which the level axis needs. Insertions in the middle of a
// sibling list shift later siblings out of alignment — they rescore
// unnecessarily, which costs time but never correctness. The root pair's
// special level rule (tree-height comparison) only matters for cell (0,0),
// which is copied only when the entire tree is clean — heights equal by
// identity.
//
// The equivalence suite pins rematched tables equal to full re-matches
// over add/rename/retype/delete evolutions, and the PhaseRematch trace
// span reports how many cells were rescored vs copied.

// RematchStats reports how much of a re-match was saved: cells copied from
// the previous table vs rescored, and the node (column/row) counts behind
// them. CleanNodes+DirtyNodes is the changed side's node count.
type RematchStats struct {
	// CopiedCells and RescoredCells partition the new pair table.
	CopiedCells   int64
	RescoredCells int64
	// CleanNodes and DirtyNodes partition the changed side's nodes.
	CleanNodes int
	DirtyNodes int
	// Full marks a fallback to a full fill (previous result released or
	// partial): everything rescored.
	Full bool
}

// alignSide positionally aligns the changed side of the new match against
// the old one and reports, per new-side node, whether its entire subtree
// is unchanged (clean). oldIdx maps new pre-order index → aligned old
// pre-order index (-1 when the position has no old counterpart).
func alignSide(oldNodes []*xmltree.Node, oldKids [][]int32, newNodes []*xmltree.Node, newKids [][]int32) (oldIdx []int32, clean []bool) {
	oldIdx = make([]int32, len(newNodes))
	clean = make([]bool, len(newNodes))
	for i := range oldIdx {
		oldIdx[i] = -1
	}
	// Iterative pre-order pairing: positions align parent-by-parent, so a
	// stack of (old, new) index pairs visits every aligned position once.
	type pair struct{ o, n int32 }
	stack := []pair{{0, 0}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		oldIdx[p.n] = p.o
		on, nn := oldNodes[p.o], newNodes[p.n]
		clean[p.n] = on.Label == nn.Label &&
			on.Props.Norm() == nn.Props.Norm() &&
			len(oldKids[p.o]) == len(newKids[p.n])
		k := min(len(oldKids[p.o]), len(newKids[p.n]))
		for x := 0; x < k; x++ {
			stack = append(stack, pair{oldKids[p.o][x], newKids[p.n][x]})
		}
	}
	// Fold children into parents: pre-order puts children at higher
	// indices, so a descending sweep sees every child before its parent.
	for i := len(newNodes) - 1; i >= 0; i-- {
		if !clean[i] {
			continue
		}
		for _, c := range newKids[i] {
			if !clean[c] {
				clean[i] = false
				break
			}
		}
	}
	return oldIdx, clean
}

// complete reports whether every cell of the table was computed (a partial
// previous result cannot seed a re-match).
func (r *Result) complete() bool {
	if r.buf == nil {
		return false
	}
	for _, f := range r.flags {
		if f&flagDone == 0 {
			return false
		}
	}
	return true
}

// RematchTarget computes the pair table of (prev.Source, newTgt) — the
// previous match with its target replaced by an evolved version — copying
// the columns of clean target subtrees from prev and rescoring only dirty
// columns. The resulting table is equal to m.Tree(prev.Source, newTgt);
// prev is read, never mutated, and stays valid. A released or partial prev
// degrades to a full fill (Stats.Full).
func (m *Matcher) RematchTarget(prev *Result, newTgt *xmltree.Node) (*Result, RematchStats) {
	if !prev.complete() {
		r := m.Tree(prev.Source, newTgt)
		return r, RematchStats{RescoredCells: int64(len(r.srcNodes) * len(r.tgtNodes)),
			DirtyNodes: len(r.tgtNodes), Full: true}
	}
	r := m.newResult(prev.Source, newTgt)
	sp := m.Trace.StartSpan(obs.PhaseRematch)
	oldIdx, clean := alignSide(prev.tgtNodes, prev.tgtKids, r.tgtNodes, r.tgtKids)

	n := len(r.srcNodes)
	mNew, mOld := len(r.tgtNodes), len(prev.tgtNodes)
	// Coalesce clean columns into runs of contiguous (new, old) index pairs,
	// then copy both planes row-major: one memmove per run per row instead
	// of a strided cell-by-cell walk down each column, which on large
	// tables costs more than the fill it replaces. Dirty columns keep the
	// zero flag byte acquireBuffers left them until computeCols fills them.
	type copyRun struct{ newStart, oldStart, len int }
	var runs []copyRun
	dirty := make([]int32, 0, mNew)
	for j := 0; j < mNew; {
		if !clean[j] {
			dirty = append(dirty, int32(j))
			j++
			continue
		}
		start, ostart := j, int(oldIdx[j])
		for j++; j < mNew && clean[j] && int(oldIdx[j]) == ostart+(j-start); j++ {
		}
		runs = append(runs, copyRun{start, ostart, j - start})
	}
	for i := 0; i < n; i++ {
		nb, ob := i*mNew, i*mOld
		for _, run := range runs {
			dst, src := nb+run.newStart, ob+run.oldStart
			copy(r.values[dst:dst+run.len], prev.values[src:src+run.len])
			copy(r.flags[dst:dst+run.len], prev.flags[src:src+run.len])
		}
	}
	if clean[0] { // the whole target is clean: cell (0, 0) is copied
		r.Root = prev.Root
	}
	// A typical delta dirties a handful of columns: buildKernel then skips
	// the kernel, and those cells are scored through the name matcher.
	m.buildKernel(r, int64(n)*int64(len(dirty)), 1)
	tw := &treeWorker{m: m, names: m.Names, r: r}
	for i := n - 1; i >= 0; i-- {
		tw.computeCols(i, dirty)
	}

	stats := RematchStats{
		CopiedCells:   int64(n) * int64(mNew-len(dirty)),
		RescoredCells: int64(n) * int64(len(dirty)),
		CleanNodes:    mNew - len(dirty),
		DirtyNodes:    len(dirty),
	}
	if sp != nil {
		sp.SetNodes(n, mNew)
		sp.SetCells(stats.RescoredCells)
	}
	sp.End()
	return r, stats
}

// RematchSource is RematchTarget with the source side evolving: clean
// source subtrees contribute whole rows copied from prev, dirty rows are
// recomputed children-before-parents.
func (m *Matcher) RematchSource(prev *Result, newSrc *xmltree.Node) (*Result, RematchStats) {
	if !prev.complete() {
		r := m.Tree(newSrc, prev.Target)
		return r, RematchStats{RescoredCells: int64(len(r.srcNodes) * len(r.tgtNodes)),
			DirtyNodes: len(r.srcNodes), Full: true}
	}
	r := m.newResult(newSrc, prev.Target)
	sp := m.Trace.StartSpan(obs.PhaseRematch)
	oldIdx, clean := alignSide(prev.srcNodes, prev.srcKids, r.srcNodes, r.srcKids)

	n, mcols := len(r.srcNodes), len(r.tgtNodes)
	dirtyRows := 0
	for i := 0; i < n; i++ {
		if !clean[i] {
			dirtyRows++
		}
	}
	m.buildKernel(r, int64(dirtyRows)*int64(mcols), 1)
	tw := &treeWorker{m: m, names: m.Names, r: r}
	for i := n - 1; i >= 0; i-- {
		if clean[i] {
			oi := int(oldIdx[i])
			copy(r.values[i*mcols:(i+1)*mcols], prev.values[oi*mcols:(oi+1)*mcols])
			copy(r.flags[i*mcols:(i+1)*mcols], prev.flags[oi*mcols:(oi+1)*mcols])
		} else {
			tw.computeRow(i)
		}
	}
	if clean[0] { // the whole source is clean: row 0 is copied
		r.Root = prev.Root
	}

	stats := RematchStats{
		CopiedCells:   int64(n-dirtyRows) * int64(mcols),
		RescoredCells: int64(dirtyRows) * int64(mcols),
		CleanNodes:    n - dirtyRows,
		DirtyNodes:    dirtyRows,
	}
	if sp != nil {
		sp.SetNodes(n, mcols)
		sp.SetCells(stats.RescoredCells)
	}
	sp.End()
	return r, stats
}
