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
func newKernelFrom(src, tgt *Interned, b *kernelBuffers) *simKernel {
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

// fillLabelRow scores row i of the label matrix through the batch scorer,
// with sc as the row's scratch. The scorer reports only the pairs that
// match, so the row is first zeroed to (0, None), one tile's run of
// columns at a time.
func (k *simKernel) fillLabelRow(ks *lingo.KernelScorer, i int, sc *lingo.RowScratch) {
	nt := len(k.tgt.Labels)
	for j := 0; j < nt; j += tileCMask + 1 {
		lo := k.lb.idx(int32(i), int32(j))
		hi := lo + min(tileCMask+1, nt-j)
		clear(k.labelScore[lo:hi])
		clear(k.labelKind[lo:hi])
	}
	ks.ScoreRow(int32(i), sc, func(j int32, s float64, kind lingo.Kind) {
		idx := k.lb.idx(int32(i), j)
		k.labelScore[idx], k.labelKind[idx] = s, uint8(kind)
	})
}

// fillPropRow scores row i of the property matrix, taking each pair's type
// score from the type table.
func (k *simKernel) fillPropRow(tt *typeTable, i int) {
	sp := &k.src.Props[i]
	types := tt.score[int(tt.src[i])*tt.nt:]
	for j := range k.tgt.Props {
		idx := k.pb.idx(int32(i), int32(j))
		p := matchNormed(sp, &k.tgt.Props[j], types[tt.tgt[j]])
		k.propScore[idx], k.propKind[idx] = p.Score, uint8(p.Kind)
	}
}

// typeTable holds typeScore for every pair of distinct types of the two
// property vocabularies. typeScore depends on the two type strings alone,
// and a vocabulary's property sets share a handful of types, so the
// property plane looks the score up instead of walking the datatype
// hierarchy per pair.
type typeTable struct {
	src, tgt []int32   // property-set id → type id, per side
	nt       int       // distinct target types
	score    []float64 // [srcType*nt + tgtType]

	ids   map[string]int32 // build scratch: type → id on one side
	names []string         // build scratch: source types, then target types
}

// build assigns type ids to both sides' property sets and scores every
// pair of distinct types.
func (tt *typeTable) build(src, tgt []xmltree.Properties) {
	if tt.ids == nil {
		tt.ids = make(map[string]int32)
	}
	tt.names = tt.names[:0]
	tt.src = tt.assign(tt.src, src)
	ns := len(tt.names)
	tt.tgt = tt.assign(tt.tgt, tgt)
	srcNames, tgtNames := tt.names[:ns], tt.names[ns:]
	tt.nt = len(tgtNames)
	tt.score = grow(tt.score, ns*tt.nt)
	for i, a := range srcNames {
		for j, b := range tgtNames {
			tt.score[i*tt.nt+j] = typeScore(a, b)
		}
	}
	// Drop the type strings, so a pooled buffer pins no schema.
	clear(tt.ids)
	clear(tt.names)
}

// assign returns, in ids, the type id of each property set of one side,
// appending the side's distinct types to names.
func (tt *typeTable) assign(ids []int32, props []xmltree.Properties) []int32 {
	clear(tt.ids)
	base := len(tt.names)
	ids = grow(ids, len(props))
	for i := range props {
		t := props[i].Type
		id, ok := tt.ids[t]
		if !ok {
			id = int32(len(tt.names) - base)
			tt.names = append(tt.names, t)
			tt.ids[t] = id
		}
		ids[i] = id
	}
	return ids
}

// fill computes both matrices, fanning their rows across par workers
// (inline on the calling goroutine at one). The batch scorer and the type
// table are built once on the calling goroutine (construction mutates the
// matcher's memos) and then shared read-only, so workers need no matcher
// clones; each worker takes its own label-row scratch from b. Rows are
// independent and every entry is a pure function of its two vocabulary
// entries, so every worker count fills the same matrices. Nothing carries
// label scores from one match to the next: a shared memo's lookup costs
// more than the fresh score it would save (DESIGN.md §5.9). Once m.Done
// fires, the scorer's token matrix and the workers stop between rows; fill
// reports whether every row was scored.
func (k *simKernel) fill(m *Matcher, b *kernelBuffers, par int) bool {
	ks := m.Names.NewKernelScorer(k.src.Labels, k.tgt.Labels, m.Done)
	if ks == nil {
		return false
	}
	defer ks.Release()
	b.types.build(k.src.Props, k.tgt.Props)
	nl := len(k.src.Labels)
	rows := nl + len(k.src.Props)
	b.rows = grow(b.rows, max(1, min(par, rows)))
	FanOut(par, rows, func(w, i int) bool {
		if m.aborted() {
			return false
		}
		if i < nl {
			k.fillLabelRow(ks, i, &b.rows[w])
		} else {
			k.fillPropRow(&b.types, i-nl)
		}
		return true
	})
	return !m.aborted()
}
