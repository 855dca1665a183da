package core

import (
	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// This file implements the vocabulary-interned similarity kernel. The
// hybrid fill (Fig. 3) needs a label score and a property score for every
// pair-table cell — n·m linguistic comparisons on the naive path, 867k on
// the corpus' largest workload (231×3753 nodes). But schema vocabularies
// are tiny compared to schema trees: labels and property sets repeat
// heavily (the protein schemas reuse a few dozen element names thousands
// of times). The kernel interns both vocabularies at match entry, scores
// each unique (label, label) and (propset, propset) combination exactly
// once into dense matrices, and turns the per-cell axis work of
// computeCols into two array lookups. The linguistic cost of a match
// drops from O(n·m) to O(|Lₛ|·|Lₜ|) (see DESIGN.md §5.9).
//
// The matrices are stored structure-of-arrays (scores and kinds apart) in
// a tile-blocked layout — see the blocked type.

// Tile geometry of the blocked matrices: 8 rows × 256 columns = 2048
// entries (16 KiB of float64 scores) per tile. Columns dominate because
// both the fill and the pair-table sweep walk target-major — a 256-entry
// run is long enough to stream, while 8-row tiles keep a parent row and
// its children's rows (nearby in pre-order, hence usually in vocabulary
// id) inside one resident tile during the children-axis loop.
const (
	tileRShift = 3
	tileCShift = 8
	tileRMask  = 1<<tileRShift - 1
	tileCMask  = 1<<tileCShift - 1
)

// blocked maps (row, col) positions of an R×C matrix onto a flat slice
// laid out as row-major tiles of row-major entries. Entries of one tile
// are contiguous, so sweeps that stay within a tile row touch long linear
// runs, and the padding to whole tiles is the only waste.
type blocked struct {
	tilesPerRow int
}

// newBlocked sizes a blocked layout for a rows×cols matrix, returning the
// layout and the padded entry count to allocate.
func newBlocked(rows, cols int) (blocked, int) {
	tpr := (cols + tileCMask) >> tileCShift
	tpc := (rows + tileRMask) >> tileRShift
	return blocked{tilesPerRow: tpr}, tpc * tpr << (tileRShift + tileCShift)
}

// idx returns the flat position of matrix entry (i, j).
func (b blocked) idx(i, j int32) int {
	return (int(i>>tileRShift)*b.tilesPerRow+int(j>>tileCShift))<<(tileRShift+tileCShift) |
		int(i&tileRMask)<<tileCShift | int(j&tileCMask)
}

// Interned is the per-side vocabulary of one schema tree: the dense label
// and normalized-property-set ids of every node in pre-order, plus the
// id → entry tables. Interning one side is independent of the other side,
// so an Interned value can be computed once per schema (at artifact compile
// time) and reused across every match the schema participates in — the
// compiled-schema fast path. All fields are read-only after Intern returns.
type Interned struct {
	// LabelID and PropID map node pre-order index → dense vocabulary id.
	LabelID []int32
	PropID  []int32
	// Labels and Props map dense id → vocabulary entry. Props entries are
	// Norm-canonicalized.
	Labels []string
	Props  []xmltree.Properties
}

// Intern builds the vocabulary of a pre-order node list: dense ids in
// first-appearance order for the distinct labels, and for the distinct
// Norm-canonicalized property sets (MatchProperties begins by norming both
// sides, so two sets equal after Norm always score alike).
func Intern(nodes []*xmltree.Node) *Interned {
	in := &Interned{
		LabelID: make([]int32, len(nodes)),
		PropID:  make([]int32, len(nodes)),
		Labels:  make([]string, 0, 64),
		Props:   make([]xmltree.Properties, 0, 32),
	}
	labelIndex := make(map[string]int32, 64)
	propIndex := make(map[xmltree.Properties]int32, 32)
	for i, n := range nodes {
		id, ok := labelIndex[n.Label]
		if !ok {
			id = int32(len(in.Labels))
			in.Labels = append(in.Labels, n.Label)
			labelIndex[n.Label] = id
		}
		in.LabelID[i] = id

		p := n.Props.Norm()
		pid, ok := propIndex[p]
		if !ok {
			pid = int32(len(in.Props))
			in.Props = append(in.Props, p)
			propIndex[p] = pid
		}
		in.PropID[i] = pid
	}
	return in
}

// simKernel holds the interned vocabularies and score matrices of one
// pair-table computation. All fields are written during the fill phase and
// read-only afterwards, so pair-table workers share a kernel freely.
// Scores and kinds live in separate planes (structure-of-arrays): the
// children-axis sweep reads only scores, and kinds pack to one byte.
type simKernel struct {
	src, tgt *Interned

	lb         blocked // label-matrix layout (|Lₛ|×|Lₜ|)
	labelScore []float64
	labelKind  []uint8

	pb        blocked // property-matrix layout (|Pₛ|×|Pₜ|)
	propScore []float64
	propKind  []uint8
}

// newKernelFrom builds a kernel over per-side vocabularies, interned at
// match entry or precompiled (the compiled-schema path, which skips the
// interning walk entirely). The score matrices still must be filled per
// pair (they depend on both vocabularies). The planes reuse b's pooled
// slabs; stale contents are harmless because the fill writes every
// logical entry and the accessors never touch tile padding.
func newKernelFrom(src, tgt *Interned, b *matchBuffers) *simKernel {
	k := &simKernel{src: src, tgt: tgt}
	var ln, pn int
	k.lb, ln = newBlocked(len(src.Labels), len(tgt.Labels))
	k.pb, pn = newBlocked(len(src.Props), len(tgt.Props))
	b.lScore, b.lKind = grow(b.lScore, ln), grow(b.lKind, ln)
	b.pScore, b.pKind = grow(b.pScore, pn), grow(b.pKind, pn)
	k.labelScore, k.labelKind = b.lScore, b.lKind
	k.propScore, k.propKind = b.pScore, b.pKind
	return k
}

// logicalCells is the number of scored matrix entries (excluding tile
// padding), the count the intern trace span reports.
func (k *simKernel) logicalCells() int64 {
	return int64(len(k.src.Labels)*len(k.tgt.Labels) + len(k.src.Props)*len(k.tgt.Props))
}

// labelAt returns the label-axis outcome for the pair of nodes at source
// pre-order index i and target pre-order index j.
func (k *simKernel) labelAt(i, j int) (float64, lingo.Kind) {
	idx := k.lb.idx(k.src.LabelID[i], k.tgt.LabelID[j])
	return k.labelScore[idx], lingo.Kind(k.labelKind[idx])
}

// propAt is labelAt for the property axis.
func (k *simKernel) propAt(i, j int) (float64, lingo.Kind) {
	idx := k.pb.idx(k.src.PropID[i], k.tgt.PropID[j])
	return k.propScore[idx], lingo.Kind(k.propKind[idx])
}

// fillLabelRow scores row i of the label matrix through a batch scorer.
func (k *simKernel) fillLabelRow(ks *lingo.KernelScorer, i int) {
	for j := range k.tgt.Labels {
		idx := k.lb.idx(int32(i), int32(j))
		s, kind := ks.Score(int32(i), int32(j))
		k.labelScore[idx], k.labelKind[idx] = s, uint8(kind)
	}
}

// fillPropRow scores row i of the property matrix.
func (k *simKernel) fillPropRow(i int) {
	sp := k.src.Props[i]
	for j, tp := range k.tgt.Props {
		idx := k.pb.idx(int32(i), int32(j))
		p := MatchProperties(sp, tp)
		k.propScore[idx], k.propKind[idx] = p.Score, uint8(p.Kind)
	}
}

// fill computes both matrices, fanning their rows across par workers
// (inline on the calling goroutine at one). The batch scorer is built once
// on the calling goroutine (construction mutates the matcher's memos) and
// then shared read-only — Score is concurrency-safe — so workers need no
// matcher clones. Rows are independent and every entry is a pure function
// of its two vocabulary entries, so every worker count fills the same
// matrices. Nothing carries label scores from one match to the next: a
// shared memo's lookup costs more than the fresh score it would save
// (DESIGN.md §5.9). Once m.Done fires, the scorer's token matrix and the
// workers stop between rows; fill reports whether every row was scored.
func (k *simKernel) fill(m *Matcher, par int) bool {
	ks := m.Names.NewKernelScorer(k.src.Labels, k.tgt.Labels, m.Done)
	if ks == nil {
		return false
	}
	nl := len(k.src.Labels)
	fanOut(par, nl+len(k.src.Props), func(i int) bool {
		if m.aborted() {
			return false
		}
		if i < nl {
			k.fillLabelRow(ks, i)
		} else {
			k.fillPropRow(i - nl)
		}
		return true
	})
	return !m.aborted()
}
