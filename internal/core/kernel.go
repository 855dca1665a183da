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
// a tile-blocked layout — see the blocked type — and the score plane is
// float64 by default or float32 under PrecisionFloat32 (half the memory,
// scores within float32 rounding of the default; DESIGN.md §5.10).

// Precision selects the storage width of the kernel's score matrices.
// The default PrecisionFloat64 stores scores exactly as computed, keeping
// pair tables bit-identical to scoring every cell directly.
// PrecisionFloat32 halves the matrices' memory; scores read back within
// float32 rounding (≤6e-8 for values in [0,1]), which the tolerance tests
// pin and which preserves pair rank order in practice.
type Precision uint8

const (
	// PrecisionFloat64 stores kernel scores at full width (default).
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 stores kernel scores at half width.
	PrecisionFloat32
)

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
	prec     Precision

	lb           blocked // label-matrix layout (|Lₛ|×|Lₜ|)
	labelScore64 []float64
	labelScore32 []float32
	labelKind    []uint8

	pb          blocked // property-matrix layout (|Pₛ|×|Pₜ|)
	propScore64 []float64
	propScore32 []float32
	propKind    []uint8
}

// newKernelFrom builds a kernel over per-side vocabularies, interned at
// match entry or precompiled (the compiled-schema path, which skips the
// interning walk entirely). The score matrices still must be filled per
// pair (they depend on both vocabularies), but the shared label cache
// makes repeat pairs cheap. The score planes reuse b's pooled slabs; stale
// contents are harmless because the fill writes every logical entry and
// the accessors never touch tile padding.
func newKernelFrom(src, tgt *Interned, prec Precision, b *matchBuffers) *simKernel {
	k := &simKernel{src: src, tgt: tgt, prec: prec}
	var ln, pn int
	k.lb, ln = newBlocked(len(src.Labels), len(tgt.Labels))
	k.pb, pn = newBlocked(len(src.Props), len(tgt.Props))
	b.lKind = grow(b.lKind, ln)
	b.pKind = grow(b.pKind, pn)
	k.labelKind, k.propKind = b.lKind, b.pKind
	if prec == PrecisionFloat32 {
		b.lS32 = grow(b.lS32, ln)
		b.pS32 = grow(b.pS32, pn)
		k.labelScore32, k.propScore32 = b.lS32, b.pS32
	} else {
		b.lS64 = grow(b.lS64, ln)
		b.pS64 = grow(b.pS64, pn)
		k.labelScore64, k.propScore64 = b.lS64, b.pS64
	}
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
	if k.labelScore64 != nil {
		return k.labelScore64[idx], lingo.Kind(k.labelKind[idx])
	}
	return float64(k.labelScore32[idx]), lingo.Kind(k.labelKind[idx])
}

// propAt is labelAt for the property axis.
func (k *simKernel) propAt(i, j int) (float64, lingo.Kind) {
	idx := k.pb.idx(k.src.PropID[i], k.tgt.PropID[j])
	if k.propScore64 != nil {
		return k.propScore64[idx], lingo.Kind(k.propKind[idx])
	}
	return float64(k.propScore32[idx]), lingo.Kind(k.propKind[idx])
}

// setLabel stores one label-matrix entry at (label id, label id).
func (k *simKernel) setLabel(i, j int32, s float64, kind lingo.Kind) {
	idx := k.lb.idx(i, j)
	if k.labelScore64 != nil {
		k.labelScore64[idx] = s
	} else {
		k.labelScore32[idx] = float32(s)
	}
	k.labelKind[idx] = uint8(kind)
}

// setProp stores one property-matrix entry at (prop id, prop id).
func (k *simKernel) setProp(i, j int32, p PropertyQoM) {
	idx := k.pb.idx(i, j)
	if k.propScore64 != nil {
		k.propScore64[idx] = p.Score
	} else {
		k.propScore32[idx] = float32(p.Score)
	}
	k.propKind[idx] = uint8(p.Kind)
}

// fillLabelRow scores row i of the label matrix through a batch scorer,
// consulting (and feeding) the shared cross-match cache when one is
// attached.
func (k *simKernel) fillLabelRow(ks *lingo.KernelScorer, cache *lingo.ScoreCache, i int) {
	sl := k.src.Labels[i]
	for j, tl := range k.tgt.Labels {
		if cache != nil {
			if ls, ok := cache.Get(sl, tl); ok {
				k.setLabel(int32(i), int32(j), ls.Score, ls.Kind)
				continue
			}
		}
		s, kind := ks.Score(int32(i), int32(j))
		k.setLabel(int32(i), int32(j), s, kind)
		if cache != nil {
			cache.Put(sl, tl, lingo.LabelScore{Score: s, Kind: kind})
		}
	}
}

// fillPropRow scores row i of the property matrix.
func (k *simKernel) fillPropRow(i int) {
	sp := k.src.Props[i]
	for j, tp := range k.tgt.Props {
		k.setProp(int32(i), int32(j), MatchProperties(sp, tp))
	}
}

// fill computes both matrices, fanning their rows across par workers
// (inline on the calling goroutine at one). The batch scorer is built once
// on the calling goroutine (construction mutates the matcher's memos) and
// then shared read-only — Score is concurrency-safe — so workers need no
// matcher clones. Rows are independent and every entry is a pure function
// of its two vocabulary entries, so every worker count fills the same
// matrices.
func (k *simKernel) fill(names *lingo.NameMatcher, cache *lingo.ScoreCache, par int) {
	ks := names.NewKernelScorer(k.src.Labels, k.tgt.Labels)
	nl := len(k.src.Labels)
	fanOut(par, nl+len(k.src.Props), func(i int) bool {
		if i < nl {
			k.fillLabelRow(ks, cache, i)
		} else {
			k.fillPropRow(i - nl)
		}
		return true
	})
}
