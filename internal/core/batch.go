package core

import (
	"context"
	"runtime/pprof"
	"sync"

	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// This file shares one similarity kernel across the pairs of a batch call:
// a rank, a search or a grid. A label entry is a function of the two labels
// and the thesaurus alone, and a property entry of the two property sets,
// so a kernel over the union of the sources' vocabularies × the union of
// the targets' holds every entry that each pair's own kernel would hold.
// Each pair reads it through views: its two schemas' vocabularies with
// their ids remapped into the union ids (DESIGN.md §5.9). Nothing outlives
// the call, and every read is still an array index.

// KernelView supplies the vocabularies of the two trees of the next Tree
// call and, from a batch, the shared kernel they index (Batch.View).
type KernelView struct {
	// Src and Tgt are the source and target vocabularies, precompiled or
	// interned once per batch. A nil side, or one whose node count
	// disagrees with its tree, is interned at match entry.
	Src, Tgt *Interned
	// shared holds the score of every (Src, Tgt) id pair. When both sides
	// agree with their trees, Tree reads it and scores no kernel itself.
	shared *simKernel
}

// fits reports whether in is a vocabulary of a tree with this node list.
func fits(in *Interned, nodes []*xmltree.Node) bool {
	return in != nil && len(in.LabelID) == len(nodes)
}

// Batch is the scratch of one batch call: the union vocabulary of its
// sources, the union of its current target group, every schema's view
// into its side's union, and the group's shared kernel. The kernel is
// read-only once filled, every cell of the group reads it through its
// views, and no Result returns its planes to the pool: the next Group or
// Release does. Batches are pooled; NewBatch takes one and Release gives
// it back.
type Batch struct {
	src, tgt batchSide
	lo       int // the current group's first target
	kern     simKernel
	kbuf     *kernelBuffers // the kernel's planes, nil when unfilled
}

// batchSide is one side of a batch: the union of its schemas' vocabularies,
// with ids in first-appearance order, and each schema's view into it.
type batchSide struct {
	union   Interned // Labels and Props of the union; no id arrays
	labels  []string
	props   []xmltree.Properties
	labelID map[string]int32
	propID  map[xmltree.Properties]int32
	remap   []int32    // per schema: its labels' union ids, then its property sets'
	views   []Interned // per schema: its id arrays in union ids
	ids     []int32    // backing of the views' id arrays
}

var batchPool = sync.Pool{New: func() any {
	return &Batch{
		src: batchSide{labelID: map[string]int32{}, propID: map[xmltree.Properties]int32{}},
		tgt: batchSide{labelID: map[string]int32{}, propID: map[xmltree.Properties]int32{}},
	}
}}

// NewBatch takes a pooled Batch and builds its source side: the union of
// the sources' vocabularies and one view per source position.
func NewBatch(sources []*Interned) *Batch {
	b := batchPool.Get().(*Batch)
	if len(sources) > 1 {
		for _, v := range sources {
			b.src.add(v)
		}
	}
	b.src.setViews(sources)
	return b
}

// Release returns b to the pool. No view of it may be read afterwards.
func (b *Batch) Release() {
	b.releaseKernel()
	b.src.reset()
	b.tgt.reset()
	// Drop the schemas' strings and slices, so a pooled batch pins none.
	for _, s := range []*batchSide{&b.src, &b.tgt} {
		clear(s.labels[:cap(s.labels)])
		clear(s.props[:cap(s.props)])
		clear(s.views[:cap(s.views)])
	}
	batchPool.Put(b)
}

// Group forms the next target group, from targets[lo]: targets join in
// order while the kernel over the source union × the group's target union
// holds at most budget label and property entries. It returns the group's
// end. ok is false when targets[lo] alone exceeds the budget: that target
// gets no view, and its cells fill their own kernels.
func (b *Batch) Group(targets []*Interned, lo int, budget int64) (hi int, ok bool) {
	b.releaseKernel()
	t := &b.tgt
	t.reset()
	b.lo = lo
	ls, ps := int64(len(b.src.union.Labels)), int64(len(b.src.union.Props))
	for hi = lo; hi < len(targets); hi++ {
		nl, np, nr := len(t.labels), len(t.props), len(t.remap)
		t.add(targets[hi])
		if ls*int64(len(t.labels))+ps*int64(len(t.props)) > budget {
			t.truncate(nl, np, nr)
			break
		}
	}
	if hi == lo {
		return lo + 1, false
	}
	t.setViews(targets[lo:hi])
	return hi, true
}

// Fill scores the current group's kernel, the source union × the group's
// target union, over par workers through m's name matcher. It is the
// per-pair fill over larger vocabularies, under one intern span on m.Trace
// that carries the two union sizes and the entry count. Fill reports
// false when m.Done cut it short.
func (b *Batch) Fill(m *Matcher, par int) bool {
	sp := m.Trace.StartSpan(obs.PhaseIntern)
	b.kbuf = kernelPool.Get().(*kernelBuffers)
	b.kern = *newKernelFrom(&b.src.union, &b.tgt.union, b.kbuf)
	ok := false
	pprof.Do(context.Background(), pprof.Labels("qmatch_workload", "batch", "qmatch_phase", "kernel"), func(context.Context) {
		ok = b.kern.fill(m, b.kbuf, par)
	})
	if sp != nil {
		sp.SetNodes(len(b.src.union.Labels), len(b.tgt.union.Labels))
		if ok {
			sp.SetCells(b.kern.logicalCells())
		}
		sp.SetWorkers(par)
		if !ok {
			sp.MarkPartial()
		}
	}
	sp.End()
	if !ok {
		b.releaseKernel()
	}
	return ok
}

// View returns cell (i, j)'s read of the kernel Fill filled for the
// current group: source i's view and target j's, where j is a target
// position of the group.
func (b *Batch) View(i, j int) KernelView {
	return KernelView{Src: &b.src.views[i], Tgt: &b.tgt.views[j-b.lo], shared: &b.kern}
}

// releaseKernel returns the current group's planes to the arena pool.
func (b *Batch) releaseKernel() {
	if b.kbuf != nil {
		kernelPool.Put(b.kbuf)
		b.kbuf, b.kern = nil, simKernel{}
	}
}

// reset empties the side, keeping its capacity.
func (s *batchSide) reset() {
	clear(s.labelID)
	clear(s.propID)
	s.union = Interned{}
	s.labels, s.props = s.labels[:0], s.props[:0]
	s.remap, s.views, s.ids = s.remap[:0], s.views[:0], s.ids[:0]
}

// add merges v's vocabulary into the union and appends v's union ids, its
// labels' and then its property sets', to remap.
func (s *batchSide) add(v *Interned) {
	for _, l := range v.Labels {
		id, ok := s.labelID[l]
		if !ok {
			id = int32(len(s.labels))
			s.labelID[l] = id
			s.labels = append(s.labels, l)
		}
		s.remap = append(s.remap, id)
	}
	for _, p := range v.Props {
		id, ok := s.propID[p]
		if !ok {
			id = int32(len(s.props))
			s.propID[p] = id
			s.props = append(s.props, p)
		}
		s.remap = append(s.remap, id)
	}
}

// truncate undoes the adds after the union held nl labels, np property
// sets and nr remapped ids.
func (s *batchSide) truncate(nl, np, nr int) {
	for _, l := range s.labels[nl:] {
		delete(s.labelID, l)
	}
	for _, p := range s.props[np:] {
		delete(s.propID, p)
	}
	s.labels, s.props, s.remap = s.labels[:nl], s.props[:np], s.remap[:nr]
}

// setViews gives each of vs, the schemas added since the last reset, its
// view: the union's Labels and Props, with LabelID and PropID remapped
// into union ids. A side that holds one schema keeps its own vocabulary,
// which is its union with the same ids, and need not have been added.
func (s *batchSide) setViews(vs []*Interned) {
	s.views = grow(s.views, len(vs))
	if len(vs) == 1 {
		s.union = Interned{Labels: vs[0].Labels, Props: vs[0].Props}
		s.views[0] = *vs[0]
		return
	}
	s.union = Interned{Labels: s.labels, Props: s.props}
	n := 0
	for _, v := range vs {
		n += 2 * len(v.LabelID)
	}
	s.ids = grow(s.ids, n)
	ids, remap := s.ids, s.remap
	for k, v := range vs {
		nn, nl := len(v.LabelID), len(v.Labels)
		lmap, pmap := remap[:nl], remap[nl:nl+len(v.Props)]
		remap = remap[nl+len(v.Props):]
		view := Interned{LabelID: ids[:nn:nn], PropID: ids[nn : 2*nn : 2*nn], Labels: s.union.Labels, Props: s.union.Props}
		ids = ids[2*nn:]
		for i, id := range v.LabelID {
			view.LabelID[i] = lmap[id]
		}
		for i, id := range v.PropID {
			view.PropID[i] = pmap[id]
		}
		s.views[k] = view
	}
}
