package qmatch_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// compileDatasetPair compiles both sides of a dataset pair.
func compileDatasetPair(t *testing.T, p dataset.Pair) (*qmatch.CompiledSchema, *qmatch.CompiledSchema) {
	t.Helper()
	src, err := qmatch.Compile(qmatch.FromTree(p.Source))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := qmatch.Compile(qmatch.FromTree(p.Target))
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

// sameReport compares the user-visible match outcome, ignoring the
// rematch bookkeeping attached only to incremental reports.
func sameReport(t *testing.T, got, want *qmatch.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Correspondences, want.Correspondences) {
		t.Fatalf("correspondences differ:\n got %v\nwant %v", got.Correspondences, want.Correspondences)
	}
	if got.TreeQoM != want.TreeQoM {
		t.Fatalf("TreeQoM %v, want %v", got.TreeQoM, want.TreeQoM)
	}
}

// Engine.Rematch after an evolved target PUT must reproduce MatchCompiled
// over the new pair exactly, rescoring only part of the grid.
func TestEngineRematchTarget(t *testing.T) {
	p := dataset.DCMDPair()
	src, tgt := compileDatasetPair(t, p)

	evolved := p.Target.Clone()
	evolved.Leaves()[2].Label = "RenamedByEvolution"
	evolved.Nodes()[1].Add(xmltree.New("AddedChild", xmltree.Elem("string")))
	tgt2, err := qmatch.Compile(qmatch.FromTree(evolved))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		t.Fatal(err)
	}
	prev := eng.MatchCompiled(src, tgt)
	rep, err := eng.Rematch(prev, tgt, tgt2)
	if err != nil {
		t.Fatal(err)
	}

	full, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, rep, full.MatchCompiled(src, tgt2))

	st := rep.Rematch
	if st == nil {
		t.Fatal("rematch report carries no stats")
	}
	total := int64(p.Source.Size() * evolved.Size())
	if st.Side != "target" || st.Full || st.CopiedCells == 0 || st.RescoredCells >= total {
		t.Fatalf("not incremental: %+v over %d cells", st, total)
	}

	// The rematch report itself carries state, so evolution chains keep
	// going: rename once more and rematch off the rematched report.
	evolved2 := evolved.Clone()
	evolved2.Leaves()[4].Label = "SecondGeneration"
	tgt3, err := qmatch.Compile(qmatch.FromTree(evolved2))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := eng.Rematch(rep, tgt2, tgt3)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, rep2, full.MatchCompiled(src, tgt3))
	if rep2.Rematch == nil || rep2.Rematch.Full {
		t.Fatalf("chained rematch degraded: %+v", rep2.Rematch)
	}

	// prev stays valid after being used as a rematch seed.
	sameReport(t, prev, full.MatchCompiled(src, tgt))
}

// Evolving the source side takes the row-copy path.
func TestEngineRematchSource(t *testing.T) {
	p := dataset.POPair()
	src, tgt := compileDatasetPair(t, p)

	evolved := p.Source.Clone()
	evolved.Leaves()[1].Props.Type = "decimal"
	src2, err := qmatch.Compile(qmatch.FromTree(evolved))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		t.Fatal(err)
	}
	prev := eng.MatchCompiled(src, tgt)
	rep, err := eng.Rematch(prev, src, src2)
	if err != nil {
		t.Fatal(err)
	}

	full, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, rep, full.MatchCompiled(src2, tgt))
	if rep.Rematch == nil || rep.Rematch.Side != "source" || rep.Rematch.CopiedCells == 0 {
		t.Fatalf("source-side stats wrong: %+v", rep.Rematch)
	}
}

func TestEngineRematchErrors(t *testing.T) {
	p := dataset.POPair()
	src, tgt := compileDatasetPair(t, p)
	other, err := qmatch.Compile(qmatch.FromTree(dataset.BookPair().Source))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := eng.Rematch(nil, src, tgt); err == nil || !strings.Contains(err.Error(), "WithRematchState") {
		t.Fatalf("nil prev: %v", err)
	}
	prev := eng.MatchCompiled(src, tgt)
	if _, err := eng.Rematch(prev, nil, tgt); err == nil {
		t.Fatal("nil old schema accepted")
	}
	if _, err := eng.Rematch(prev, other, tgt); err == nil || !strings.Contains(err.Error(), "not a side") {
		t.Fatalf("foreign old schema: %v", err)
	}

	// An Engine without WithRematchState attaches no state, so its reports
	// cannot seed a rematch.
	plain, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	bare := plain.MatchCompiled(src, tgt)
	if _, err := eng.Rematch(bare, tgt, tgt); err == nil {
		t.Fatal("stateless report accepted as rematch seed")
	}

	// prev's cells were scored under eng's configuration, so another
	// Engine — even one that retains state — must not copy them.
	weighted, err := qmatch.NewEngine(qmatch.WithRematchState(),
		qmatch.WithWeights(qmatch.Weights{Label: 0.7, Properties: 0.1, Level: 0.1, Children: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := weighted.Rematch(prev, tgt, other); err == nil || !strings.Contains(err.Error(), "another Engine") {
		t.Fatalf("report from another Engine: %v", err)
	}
}

// A report parked as rematch state keeps only what Rematch reads: its pair
// table's value and flag planes (9 bytes per cell) and the per-side lists.
// Matched on a WithRematchState Engine and kept, a few dozen compiled
// synthetic pairs of 100–200 elements must pin at most 16 bytes of live
// heap per cell, which leaves room for the lists and the reports but not
// for a kernel plane or a wider cell. Two collections before each reading
// empty the sync.Pools, so the delta counts only the reports and their
// parked state.
func TestParkedBytesPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap objects")
	}
	eng, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 32
	var srcs, tgts []*qmatch.CompiledSchema
	var cells int64
	for i := 0; i < pairs; i++ {
		root := synth.Generate(synth.Config{Seed: int64(300 + i), Elements: 100 + 100*i/pairs, MaxDepth: 5, MaxChildren: 8})
		variant, _ := synth.Derive(root, synth.Uniform(int64(400+i), 0.3))
		src, err := qmatch.Compile(qmatch.FromTree(root))
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := qmatch.Compile(qmatch.FromTree(variant))
		if err != nil {
			t.Fatal(err)
		}
		srcs, tgts = append(srcs, src), append(tgts, tgt)
		cells += int64(src.Size()) * int64(tgt.Size())
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	reports := make([]*qmatch.Report, pairs)
	for i := range reports {
		reports[i] = eng.MatchCompiled(srcs[i], tgts[i])
	}
	after := heap()
	runtime.KeepAlive(reports)
	perCell := (float64(after) - float64(before)) / float64(cells)
	t.Logf("%d pairs, %d cells: %.1f bytes per cell parked", pairs, cells, perCell)
	if perCell > 16 {
		t.Errorf("parked reports pin %.1f bytes per cell, want at most 16", perCell)
	}
}
