package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"qmatch/internal/lingo"
	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// Matcher is the hybrid QMatch algorithm (paper §4, Fig. 3). It combines a
// linguistic label matcher, the property matcher, the level test and the
// recursive children match under the axis weights, producing a QoM for
// every source/target node pair.
type Matcher struct {
	// Weights are the axis weights of the match model. They are
	// normalized to sum to 1 when a match runs.
	Weights AxisWeights
	// Threshold is Fig. 3's "threshold value": the minimum QoM for a
	// child pair to count toward Rw and Rs. Default 0.5. Note that a
	// leaf pair with no label match but perfect structural agreement
	// reaches WP + WH + WC = 0.7 under the Table 2 weights, so the
	// children axis deliberately propagates structure-only overlap —
	// that is what lets QMatch score the paper's Library/Human example
	// (Fig. 9) far above the linguistic matcher. Correspondence
	// *selection* applies a separate label-evidence gate (see Hybrid).
	Threshold float64
	// Names is the pluggable linguistic algorithm for the label axis.
	Names *lingo.NameMatcher
	// Parallelism bounds the worker pool that fills the QoM pair table.
	// 1 (and 0, the default) computes the table sequentially on the
	// calling goroutine; n > 1 allows up to n workers; negative values
	// select GOMAXPROCS. Parallel and sequential computation produce
	// bit-identical tables — every cell is a pure function of the cells
	// of strictly smaller source subtrees, so only the schedule changes.
	Parallelism int
	// Scores is ignored: the kernel scores every label pair afresh. It is
	// kept only because benchmark/replay.go still sets it.
	Scores *lingo.ScoreCache
	// Trace receives a phase span for the kernel interning and pair-table
	// fill of each Tree call (the Fig. 3 pipeline stages). Nil — the
	// default — disables tracing; the disabled path is a nil-check with
	// zero allocations.
	Trace *obs.Trace
	// Done aborts an in-flight fill when closed: the pair-table sweep
	// stops between source rows (sequential) or height levels (parallel),
	// leaving the remaining cells uncomputed and the trace span marked
	// partial with the cell count filled so far. Nil — the default —
	// never aborts. The Engine wires this to each call's ctx.Done().
	Done <-chan struct{}
	// Interner resolves a precompiled per-side vocabulary for a tree root.
	// Nil (the default), a nil return, or an Interned whose node count
	// disagrees with the tree fall back to interning at match entry.
	// The Engine's compiled-schema path installs a lookup over the
	// CompiledSchema artifacts of the current call, skipping the intern
	// walk for schemas compiled once up front.
	Interner func(root *xmltree.Node) *Interned
}

// parallelCutoff is the minimum pair-table size (cells) worth fanning out;
// below it goroutine startup dominates the saved work.
const parallelCutoff = 4096

// NewMatcher returns a QMatch matcher with the paper's Table 2 weights,
// threshold 0.5, and a linguistic matcher over the given thesaurus (nil
// selects the built-in default thesaurus).
func NewMatcher(th *lingo.Thesaurus) *Matcher {
	if th == nil {
		th = lingo.Default()
	}
	return &Matcher{
		Weights:   DefaultWeights(),
		Threshold: 0.5,
		Names:     lingo.NewNameMatcher(th),
	}
}

// Result holds the full pair table of a tree match: the QoM of every
// (source node, target node) pair, memoized during the recursion — this is
// what realizes the paper's O(n·m) bound (DESIGN.md §5.1). The table is a
// dense n×m slice indexed by pre-order position; on the corpus' largest
// workload (231×3753 nodes) this more than halves the allocation volume a
// map-based memo would cost.
type Result struct {
	Source, Target *xmltree.Node
	// Root is the QoM of the two schema roots — "the total match value
	// for the entire source schema tree" the algorithm reports.
	Root QoM

	srcNodes, tgtNodes []*xmltree.Node
	srcIdx, tgtIdx     map[*xmltree.Node]int
	table              []QoM
	done               []bool
	kern               *simKernel

	// Iterative-fill side structures (built once per match in newResult):
	// child lists as pre-order indices, nesting levels, leaf flags, and the
	// root-pair level rule, all precomputed so computeRow touches no node
	// pointers on the hot path.
	srcKids, tgtKids     [][]int32
	srcLevels, tgtLevels []int32
	srcLeaf, tgtLeaf     []bool
	rootLevelEq          bool

	// buf is the pooled slab set backing the slices above (see arena.go);
	// nil after Release.
	buf *matchBuffers
}

func newResult(src, tgt *xmltree.Node) *Result {
	r := &Result{
		Source:   src,
		Target:   tgt,
		srcNodes: src.Nodes(),
		tgtNodes: tgt.Nodes(),
	}
	r.buf = acquireBuffers(r)
	for i, n := range r.srcNodes {
		r.srcIdx[n] = i
	}
	for i, n := range r.tgtNodes {
		r.tgtIdx[n] = i
	}
	buildSide(r.srcNodes, r.srcIdx, r.srcKids, r.srcLevels, r.srcLeaf, &r.buf.kidIdx)
	buildSide(r.tgtNodes, r.tgtIdx, r.tgtKids, r.tgtLevels, r.tgtLeaf, &r.buf.kidIdx)
	r.rootLevelEq = levelEqual(src, tgt)
	return r
}

// buildSide precomputes the per-node fill inputs of one tree side: child
// lists as pre-order indices (subslices of the shared backing store, which
// acquireBuffers sized exactly so the appends never reallocate), nesting
// levels (the side root's cached level, each child one deeper), and leaf
// flags. One O(n) walk replaces the per-cell Level/IsLeaf/pointer chasing
// the recursive fill used to do.
func buildSide(nodes []*xmltree.Node, idx map[*xmltree.Node]int, kids [][]int32, levels []int32, leaf []bool, backing *[]int32) {
	levels[0] = int32(nodes[0].Level())
	for i, nd := range nodes {
		leaf[i] = len(nd.Children) == 0
		start := len(*backing)
		for _, c := range nd.Children {
			ci := int32(idx[c])
			*backing = append(*backing, ci)
			levels[ci] = levels[i] + 1
		}
		kids[i] = (*backing)[start:len(*backing):len(*backing)]
	}
}

// cell returns the dense index of a pair, or -1 when either node is not
// part of the matched trees.
func (r *Result) cell(s, t *xmltree.Node) int {
	i, ok := r.srcIdx[s]
	if !ok {
		return -1
	}
	j, ok := r.tgtIdx[t]
	if !ok {
		return -1
	}
	return i*len(r.tgtNodes) + j
}

// PairQoM is one entry of the pair table.
type PairQoM struct {
	Source, Target *xmltree.Node
	QoM            QoM
}

// Tree matches the source tree against the target tree, computing the QoM
// of every node pair (including pairs at different relative depths, as in
// the paper's PurchaseInfo vs Purchase Order example) and returns the
// complete result. It is the one pair-table fill: buildKernel scores the
// vocabularies, then the rows are swept children-before-parents on one of
// two schedules, picked by table size. Below parallelCutoff cells or at
// Parallelism 1, one worker walks the rows in descending pre-order on the
// calling goroutine (sweepRows); larger tables fan each source-subtree
// height level out over the worker pool (sweepLevels). Both schedules
// produce bit-identical tables.
func (m *Matcher) Tree(src, tgt *xmltree.Node) *Result {
	r := newResult(src, tgt)
	par := m.parallelism()
	if len(r.table) < parallelCutoff {
		par = 1
	}
	m.buildKernel(r, int64(len(r.table)), par)
	sp := m.Trace.StartSpan(obs.PhasePairTable)
	tw := &treeWorker{m: m, names: m.Names, r: r, w: m.Weights.Normalized()}
	partial := false
	pprof.Do(context.Background(), r.profileLabels("pairtable"), func(context.Context) {
		if par == 1 {
			partial = tw.sweepRows()
		} else {
			partial = tw.sweepLevels(par, sp)
		}
	})
	if sp != nil {
		sp.SetNodes(len(r.srcNodes), len(r.tgtNodes))
		sp.SetWorkers(par)
		sp.SetCells(r.filled(partial))
		if partial {
			sp.MarkPartial()
		}
	}
	sp.End()
	if r.done[0] { // cell (0, 0): the (src, tgt) root pair
		r.Root = r.table[0]
	}
	return r
}

// buildKernel interns both sides of r (or takes the Interner's precompiled
// vocabularies) and fills the similarity kernel over par workers, under the
// intern span. cells is how many pair-table cells the caller goes on to
// compute: the dense kernel scores every label pair up front, which only
// amortizes when those cells outnumber the label pairs. A full fill always
// does (a side has no more distinct labels than nodes); a re-match that
// rescores a handful of columns does not, and leaves r.kern nil so that
// computeCols scores its cells through the name matcher directly.
func (m *Matcher) buildKernel(r *Result, cells int64, par int) {
	sp := m.Trace.StartSpan(obs.PhaseIntern)
	var si, ti *Interned
	pprof.Do(context.Background(), r.profileLabels("kernel"), func(context.Context) {
		si, ti = m.interned(r.Source, r.srcNodes), m.interned(r.Target, r.tgtNodes)
		if cells >= int64(len(si.Labels))*int64(len(ti.Labels)) {
			r.kern = newKernelFrom(si, ti, r.buf)
			r.kern.fill(m.Names, par)
		}
	})
	if sp != nil {
		sp.SetNodes(len(si.Labels), len(ti.Labels))
		if r.kern != nil {
			sp.SetCells(r.kern.logicalCells())
		}
		sp.SetWorkers(par)
	}
	sp.End()
}

// profileLabels makes a fill phase legible in CPU profiles: `go tool pprof
// -tags` splits samples by workload (root-label pair) and phase (kernel vs
// pairtable). Goroutines inherit the labels of the goroutine that starts
// them, so one pprof.Do per phase covers its whole worker pool.
func (r *Result) profileLabels(phase string) pprof.LabelSet {
	return pprof.Labels("qmatch_workload", r.Source.Label+"->"+r.Target.Label, "qmatch_phase", phase)
}

// interned resolves the vocabulary of one side: the Interner's
// precompiled value when one is installed and consistent with the tree,
// otherwise a fresh interning of the node list. The consistency check
// (node count) guards against an interner serving a stale artifact for a
// since-mutated tree.
func (m *Matcher) interned(root *xmltree.Node, nodes []*xmltree.Node) *Interned {
	if m.Interner != nil {
		if in := m.Interner(root); in != nil && len(in.LabelID) == len(nodes) {
			return in
		}
	}
	return Intern(nodes)
}

// aborted reports whether the Done signal has fired. Checked between
// source rows and height levels, never per cell — the disabled path is a
// single nil comparison.
func (m *Matcher) aborted() bool {
	if m.Done == nil {
		return false
	}
	select {
	case <-m.Done:
		return true
	default:
		return false
	}
}

// filled returns the number of computed pair-table cells: the whole table
// after a completed sweep, a scan of the done flags after a partial one.
func (r *Result) filled(partial bool) int64 {
	if !partial {
		return int64(len(r.table))
	}
	var n int64
	for _, d := range r.done {
		if d {
			n++
		}
	}
	return n
}

// parallelism resolves the effective worker bound.
func (m *Matcher) parallelism() int {
	switch {
	case m.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case m.Parallelism == 0:
		return 1
	default:
		return m.Parallelism
	}
}

// fanOut calls do(i) for every i in [0, n) across up to par goroutines,
// each claiming the next unclaimed index, and returns once all have
// finished. A worker stops claiming when do reports false. At one worker
// it runs inline on the calling goroutine.
func fanOut(par, n int, do func(i int) bool) {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n && do(i); i++ {
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && do(i); i = int(next.Add(1) - 1) {
			}
		}()
	}
	wg.Wait()
}

// treeWorker computes pair-table cells. Workers of one fill share it and
// write disjoint rows; it is read-only during the sweep. names scores
// cells directly only when the result has no kernel (a small re-match,
// always on one goroutine).
type treeWorker struct {
	m     *Matcher
	names *lingo.NameMatcher
	r     *Result
	w     AxisWeights
}

// sweepRows is the one-worker schedule: descending pre-order on the
// calling goroutine. Children follow their parent in pre-order, so every
// row a parent's children axis reads is complete before the parent row
// starts. The Done signal is checked between rows; sweepRows reports
// whether it cut the sweep short.
func (tw *treeWorker) sweepRows() bool {
	for i := len(tw.r.srcNodes) - 1; i >= 0; i-- {
		if tw.m.aborted() {
			return true
		}
		tw.computeRow(i)
	}
	return false
}

// sweepLevels is the parallel schedule. The QoM of (s, t) depends only on
// pairs whose source is a child of s — a strictly smaller subtree — so the
// rows are grouped by source-subtree height, ascending, and the rows of one
// level, independent of each other, are fanned out across par workers.
// fanOut returning is the barrier that makes every lower level's cells
// visible before the next level reads them. Each level gets a child span of
// sp: the per-level breakdown shows which stratum dominates (the wide leaf
// levels of a bushy schema vs the few expensive rows near the root). The
// Done signal is checked between levels and rows; sweepLevels reports
// whether it fired.
func (tw *treeWorker) sweepLevels(par int, sp *obs.ActiveSpan) bool {
	r, m := tw.r, tw.m
	// srcNodes is in pre-order, so children follow parents and a reverse
	// sweep sees every child before its parent.
	heights := make([]int, len(r.srcNodes))
	maxH := 0
	for i := len(r.srcNodes) - 1; i >= 0; i-- {
		h := 0
		for _, c := range r.srcKids[i] {
			if ch := heights[c] + 1; ch > h {
				h = ch
			}
		}
		heights[i] = h
		if h > maxH {
			maxH = h
		}
	}
	levels := make([][]int32, maxH+1)
	for i := range r.srcNodes {
		levels[heights[i]] = append(levels[heights[i]], int32(i))
	}
	for li, level := range levels {
		if m.aborted() {
			return true
		}
		lsp := sp.Child(obs.PhaseLevel)
		lsp.SetLevel(li + 1)
		lsp.SetNodes(len(level), len(r.tgtNodes))
		lsp.SetCells(int64(len(level)) * int64(len(r.tgtNodes)))
		lsp.SetWorkers(min(par, len(level)))
		fanOut(par, len(level), func(k int) bool {
			if m.aborted() {
				return false
			}
			tw.computeRow(int(level[k]))
			return true
		})
		if m.aborted() {
			lsp.MarkPartial()
		}
		lsp.End()
	}
	return m.aborted()
}

// computeRow fills source row i of the pair table. Rows are computed in an
// order where every child row precedes its parent's (descending pre-order
// on one worker, ascending subtree height in parallel), so the children
// axis reads completed rows by index instead of recursing — no per-cell
// map lookups, no QoM copies up a call stack, no node-pointer chasing.
// The paper-oracle tests pin every cell to the recursive definition.
func (tw *treeWorker) computeRow(i int) { tw.computeCols(i, nil) }

// computeCols fills the given target columns of source row i (nil = every
// column). The incremental re-match uses the subset form: columns whose
// target subtree is unchanged are copied from the previous table, and only
// the dirty columns are recomputed — valid in any row order satisfying the
// children-before-parents discipline, because copied columns are complete
// for all rows before the sweep starts.
func (tw *treeWorker) computeCols(i int, cols []int32) {
	r := tw.r
	mcols := len(r.tgtNodes)
	base := i * mcols
	kids := r.srcKids[i]
	sLeaf := r.srcLeaf[i]
	sLvl := r.srcLevels[i]
	k := r.kern
	// Epsilon guards the common case of a child sitting exactly at the
	// threshold under inexact float sums.
	th := tw.m.Threshold - 1e-9
	nj := mcols
	if cols != nil {
		nj = len(cols)
	}
	for cj := 0; cj < nj; cj++ {
		j := cj
		if cols != nil {
			j = int(cols[cj])
		}
		// Build the cell in place: the QoM is ~10 words, and a
		// stack-then-copy construction costs a duffcopy per cell.
		q := &r.table[base+j]
		*q = QoM{}
		if k != nil {
			q.Label, q.LabelKind = k.labelAt(i, j)
			q.Properties, q.PropertiesKind = k.propAt(i, j)
		} else {
			s, t := r.srcNodes[i], r.tgtNodes[j]
			q.Label, q.LabelKind = tw.names.Match(s.Label, t.Label)
			pq := MatchProperties(s.Props, t.Props)
			q.Properties, q.PropertiesKind = pq.Score, pq.Kind
		}

		if sLeaf && r.tgtLeaf[j] {
			// Leaf match (Eq. 2): label and properties compared; level and
			// children match exactly by default — the constant C = WH + WC.
			q.Leaf = true
			q.LevelExact = true
			q.Level = 1
			q.SubtreeWeight, q.CardinalityRatio = 1, 1
			q.Children = 1
			q.Coverage = Total
			q.ChildrenAllExact = true
		} else {
			// The root pair compares tree heights, every other pair
			// nesting levels (levelEqual); rootLevelEq caches the former.
			if i == 0 && j == 0 {
				q.LevelExact = r.rootLevelEq
			} else {
				q.LevelExact = sLvl == r.tgtLevels[j]
			}
			if q.LevelExact {
				q.Level = 1
			}
			// Children axis (Eq. 3–5): each source child contributes its
			// best-matching target candidate when that match clears the
			// threshold. Candidates are the target's children plus the
			// target node itself — the paper's §2.2 walkthrough matches
			// the source child PurchaseInfo against the target *root*
			// Purchase Order, so a source nested one level deeper than
			// the target can still achieve coverage.
			//
			// Two notions are tracked separately. The *quantitative* Rw/Rs
			// follow Fig. 3's threshold on the QoM value, which lets pure
			// structural agreement propagate (the Fig. 9 behaviour). The
			// *qualitative* coverage classification (total/partial, §2.1)
			// additionally requires the child's best pair not to classify
			// as NoMatch — a label-less structural coincidence contributes
			// weight but does not make a child "have a match". Only the
			// best candidate's index is tracked; its Class is read once at
			// the end (NoMatch when nothing beat the zero QoM).
			sum := 0.0
			count := 0
			covered := 0
			allExact := true
			tKids := r.tgtKids[j]
			for _, ci := range kids {
				cbase := int(ci) * mcols
				bestIdx := -1
				bestVal := 0.0
				for _, cj := range tKids {
					if v := r.table[cbase+int(cj)].Value; v > bestVal {
						bestVal, bestIdx = v, cbase+int(cj)
					}
				}
				if !r.srcLeaf[ci] {
					if v := r.table[cbase+j].Value; v > bestVal {
						bestVal, bestIdx = v, cbase+j
					}
				}
				if bestVal >= th {
					sum += bestVal
					count++
					var cls Class
					if bestIdx >= 0 {
						cls = r.table[bestIdx].Class
					}
					if cls != NoMatch {
						covered++
						if cls != TotalExact {
							allExact = false
						}
					}
				}
			}
			if n := len(kids); n > 0 {
				q.SubtreeWeight = sum / float64(n)
				q.CardinalityRatio = float64(count) / float64(n)
				switch {
				case covered == n:
					q.Coverage = Total
				case covered > 0:
					q.Coverage = Partial
				}
			}
			q.Children = (q.SubtreeWeight + q.CardinalityRatio) / 2
			q.ChildrenAllExact = allExact && covered > 0
		}

		q.Value = tw.w.Label*q.Label + tw.w.Properties*q.Properties +
			tw.w.Level*q.Level + tw.w.Children*q.Children
		q.classify()
		r.done[base+j] = true
	}
}

// levelEqual implements the level axis (QoMH). The paper compares nesting
// depth for nodes inside a schema ("Lines and Items ... are at different
// levels") but compares overall tree height for the two roots ("given the
// height difference between the schema trees, there is no level match
// between the roots"); both rules are honored here. See DESIGN.md §5.6.
func levelEqual(s, t *xmltree.Node) bool {
	if s.Parent() == nil && t.Parent() == nil {
		return s.MaxDepth() == t.MaxDepth()
	}
	return s.Level() == t.Level()
}

// Pair returns the QoM of a specific node pair from the result table.
func (r *Result) Pair(s, t *xmltree.Node) (QoM, bool) {
	idx := r.cell(s, t)
	if idx < 0 || !r.done[idx] {
		return QoM{}, false
	}
	return r.table[idx], true
}

// Pairs returns every pair of the table in deterministic (source pre-order,
// target pre-order) order.
func (r *Result) Pairs() []PairQoM {
	out := make([]PairQoM, 0, len(r.table))
	for i, s := range r.srcNodes {
		base := i * len(r.tgtNodes)
		for j, t := range r.tgtNodes {
			if r.done[base+j] {
				out = append(out, PairQoM{Source: s, Target: t, QoM: r.table[base+j]})
			}
		}
	}
	return out
}

// BestForSource returns the target node with the highest QoM for the given
// source node, or nil when the source has no scored pairs.
func (r *Result) BestForSource(s *xmltree.Node) (*xmltree.Node, QoM) {
	i, ok := r.srcIdx[s]
	if !ok {
		return nil, QoM{}
	}
	var bestT *xmltree.Node
	var bestQ QoM
	base := i * len(r.tgtNodes)
	for j, t := range r.tgtNodes {
		if r.done[base+j] && (bestT == nil || r.table[base+j].Value > bestQ.Value) {
			bestT, bestQ = t, r.table[base+j]
		}
	}
	return bestT, bestQ
}

// TopPairs returns the n highest-QoM pairs, ties broken by source then
// target pre-order position. Selection runs a bounded min-heap in a single
// pass over the dense table — O(cells·log n) and n heap entries instead of
// materializing and sorting all n·m pairs, which on the PIR×PDB table
// (867k cells) is the difference between microseconds and a full
// sort-the-world pass (see BenchmarkTopPairs).
func (r *Result) TopPairs(n int) []PairQoM {
	if n <= 0 {
		return nil
	}
	type entry struct {
		idx   int
		value float64
	}
	// worse reports whether a ranks strictly below b: lower value, or at
	// equal value a later table position — matching the ordering a stable
	// descending sort over the pre-order pair list produces.
	worse := func(a, b entry) bool {
		if a.value != b.value {
			return a.value < b.value
		}
		return a.idx > b.idx
	}
	// Min-heap of the current top n, worst entry at the root.
	heap := make([]entry, 0, min2(n, len(r.table)))
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l := 2*i + 1
			if l >= len(heap) {
				break
			}
			least := l
			if rc := l + 1; rc < len(heap) && worse(heap[rc], heap[l]) {
				least = rc
			}
			if !worse(heap[least], heap[i]) {
				break
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for idx := range r.table {
		if !r.done[idx] {
			continue
		}
		e := entry{idx: idx, value: r.table[idx].Value}
		switch {
		case len(heap) < n:
			heap = append(heap, e)
			siftUp(len(heap) - 1)
		case worse(heap[0], e):
			heap[0] = e
			siftDown()
		}
	}
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	out := make([]PairQoM, len(heap))
	m := len(r.tgtNodes)
	for i, e := range heap {
		out[i] = PairQoM{Source: r.srcNodes[e.idx/m], Target: r.tgtNodes[e.idx%m], QoM: r.table[e.idx]}
	}
	return out
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
