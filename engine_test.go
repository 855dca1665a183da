package qmatch_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/synth"
)

// enginePairs returns the small corpus pairs (everything but the protein
// workload) as façade schemas — the mixed workload of the concurrency
// tests.
func enginePairs() [][2]*qmatch.Schema {
	out := [][2]*qmatch.Schema{}
	for _, p := range []dataset.Pair{
		dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(),
		dataset.XBenchPair(), dataset.LibraryHumanPair(),
	} {
		out = append(out, [2]*qmatch.Schema{qmatch.FromTree(p.Source), qmatch.FromTree(p.Target)})
	}
	return out
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]qmatch.Algorithm{
		"hybrid":     qmatch.Hybrid,
		"Linguistic": qmatch.Linguistic,
		"STRUCTURAL": qmatch.Structural,
		" cupid ":    qmatch.Cupid,
	}
	for in, want := range cases {
		got, err := qmatch.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "bogus", "hybridd"} {
		if _, err := qmatch.ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "hybrid") {
			t.Errorf("ParseAlgorithm(%q) error %q does not list valid names", bad, err)
		}
	}
}

func TestNewEngineErrors(t *testing.T) {
	cases := map[string][]qmatch.Option{
		"unknown algorithm":   {qmatch.WithAlgorithm(qmatch.Algorithm("bogus"))},
		"all-zero weights":    {qmatch.WithWeights(qmatch.Weights{})},
		"negative weight":     {qmatch.WithWeights(qmatch.Weights{Label: -1, Children: 2})},
		"negative parallel":   {qmatch.WithParallelism(-2)},
		"child thresh > 1":    {qmatch.WithChildThreshold(1.5)},
		"selection thresh <0": {qmatch.WithSelectionThreshold(-0.1)},
	}
	for name, opts := range cases {
		if _, err := qmatch.NewEngine(opts...); err == nil {
			t.Errorf("%s: NewEngine accepted invalid options", name)
		}
	}
	eng, err := qmatch.NewEngine(
		qmatch.WithAlgorithm(qmatch.Hybrid),
		qmatch.WithWeights(qmatch.Weights{Label: 0.3, Properties: 0.2, Level: 0.1, Children: 0.4}),
		qmatch.WithParallelism(3),
	)
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if eng.Algorithm() != qmatch.Hybrid || eng.Parallelism() != 3 {
		t.Fatalf("accessors = %v/%d", eng.Algorithm(), eng.Parallelism())
	}
	// Parallelism 0 resolves to a machine-derived positive default.
	def, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if def.Parallelism() < 1 {
		t.Fatalf("default parallelism = %d", def.Parallelism())
	}
}

// An Engine derived with With matches exactly like one built by NewEngine
// from the base options plus the same override, shares the base's metrics
// registry, and refuses to change the thesaurus it shares.
func TestEngineWith(t *testing.T) {
	th := qmatch.NewThesaurus()
	th.AddSynonym("lines", "items")
	baseOpts := []qmatch.Option{
		qmatch.WithThesaurus(th),
		qmatch.WithObserver(qmatch.Observer{Metrics: true}),
	}
	base, err := qmatch.NewEngine(baseOpts...)
	if err != nil {
		t.Fatal(err)
	}
	poSrc, poTgt := poPairXSD(t)
	synSrc := synth.Generate(synth.Config{Seed: 41, Elements: 60, MaxDepth: 5, MaxChildren: 8})
	synTgt, _ := synth.Derive(synSrc, synth.Uniform(42, 0.3))
	pairs := map[string][2]*qmatch.Schema{
		"PO":        {poSrc, poTgt},
		"synthetic": {qmatch.FromTree(synSrc), qmatch.FromTree(synTgt)},
	}
	overrides := map[string]qmatch.Option{
		"linguistic":          qmatch.WithAlgorithm(qmatch.Linguistic),
		"structural":          qmatch.WithAlgorithm(qmatch.Structural),
		"cupid":               qmatch.WithAlgorithm(qmatch.Cupid),
		"selection threshold": qmatch.WithSelectionThreshold(0.6),
		"weights":             qmatch.WithWeights(qmatch.Weights{Label: 0.3, Properties: 0.2, Level: 0.1, Children: 0.4}),
		"child threshold":     qmatch.WithChildThreshold(0.3),
		"parallelism":         qmatch.WithParallelism(1),
	}
	wire := func(r *qmatch.Report) string {
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for name, opt := range overrides {
		derived, err := base.With(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built, err := qmatch.NewEngine(append(baseOpts[:len(baseOpts):len(baseOpts)], opt)...)
		if err != nil {
			t.Fatal(err)
		}
		for pairName, p := range pairs {
			if got, want := wire(derived.Match(p[0], p[1])), wire(built.Match(p[0], p[1])); got != want {
				t.Errorf("%s on %s: derived Engine's report differs from NewEngine's\ngot:\n%s\nwant:\n%s", name, pairName, got, want)
			}
		}
	}

	derived, err := base.With(qmatch.WithSelectionThreshold(0.9))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := base.MetricValue(qmatch.MetricMatches)
	derived.Match(poSrc, poTgt)
	if after, _ := base.MetricValue(qmatch.MetricMatches); after != before+1 {
		t.Errorf("a match on the derived Engine moved the base's %s from %d to %d, want +1", qmatch.MetricMatches, before, after)
	}

	for name, opt := range map[string]qmatch.Option{
		"WithThesaurus":           qmatch.WithThesaurus(qmatch.NewThesaurus()),
		"WithoutBuiltinThesaurus": qmatch.WithoutBuiltinThesaurus(),
	} {
		if _, err := base.With(opt); err == nil {
			t.Errorf("With(%s) accepted a thesaurus change", name)
		}
	}
	negative := qmatch.WithWeights(qmatch.Weights{Label: -1, Children: 2})
	_, withErr := base.With(negative)
	_, newErr := qmatch.NewEngine(negative)
	if withErr == nil || newErr == nil || withErr.Error() != newErr.Error() {
		t.Errorf("negative weights: With error %v, NewEngine error %v; want the same error", withErr, newErr)
	}
}

func TestMatchPanicsOnInvalidOptions(t *testing.T) {
	src, tgt := poPairXSD(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Match with all-zero weights did not panic")
		}
	}()
	qmatch.Match(src, tgt, qmatch.WithWeights(qmatch.Weights{}))
}

func TestEngineMatchEqualsPackageMatch(t *testing.T) {
	src, tgt := poPairXSD(t)
	for _, a := range []qmatch.Algorithm{qmatch.Hybrid, qmatch.Linguistic, qmatch.Structural, qmatch.Cupid} {
		eng, err := qmatch.NewEngine(qmatch.WithAlgorithm(a))
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Match(src, tgt)
		want := qmatch.Match(src, tgt, qmatch.WithAlgorithm(a))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine report differs from package-level report", a)
		}
	}
}

// TestEngineSharedConcurrent drives one shared Engine from many goroutines
// over a mixed workload and asserts every report is bit-identical to the
// sequential baseline. Run under -race this is the engine's thread-safety
// proof.
func TestEngineSharedConcurrent(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	want := make([]*qmatch.Report, len(pairs))
	wantQoM := make([]qmatch.QoMBreakdown, len(pairs))
	for i, p := range pairs {
		want[i] = eng.Match(p[0], p[1])
		wantQoM[i] = eng.QoM(p[0], p[1])
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(pairs); k++ {
				i := (g + k) % len(pairs)
				p := pairs[i]
				if got := eng.Match(p[0], p[1]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d pair %d: concurrent report differs", g, i)
					return
				}
				if g%3 == 0 {
					if q := eng.QoM(p[0], p[1]); q != wantQoM[i] {
						t.Errorf("goroutine %d pair %d: concurrent QoM differs", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestMatchAllEqualsSequentialMatch(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	var sources, targets []*qmatch.Schema
	for _, p := range pairs[:3] {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	targets = append(targets, pairs[3][1]) // non-square grid

	got, err := eng.MatchAll(context.Background(), sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("rows = %d", len(got))
	}
	for i, s := range sources {
		if len(got[i]) != len(targets) {
			t.Fatalf("row %d cols = %d", i, len(got[i]))
		}
		for j, tg := range targets {
			want := eng.Match(s, tg)
			if !reflect.DeepEqual(got[i][j], want) {
				t.Errorf("cell (%d,%d) differs from sequential Match", i, j)
			}
		}
	}
}

func TestMatchAllCancellation(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	var sources, targets []*qmatch.Schema
	for _, p := range pairs {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work
	out, err := eng.MatchAll(ctx, sources, targets)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled MatchAll returned a result")
	}
}

func TestMatchAllEmptyAndNilContext(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.MatchAll(nil, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty MatchAll = %v, %v", out, err)
	}
	src, tgt := poPairXSD(t)
	grid, err := eng.MatchAll(nil, []*qmatch.Schema{src}, []*qmatch.Schema{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid[0][0], eng.Match(src, tgt)) {
		t.Fatal("nil-context MatchAll differs from Match")
	}
}

func TestEngineRankEqualsPackageRank(t *testing.T) {
	pairs := enginePairs()
	query := pairs[0][0]
	var corpus []*qmatch.Schema
	for _, p := range pairs {
		corpus = append(corpus, p[1])
	}
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Rank(query, corpus)
	want := qmatch.Rank(query, corpus)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine Rank differs from package-level Rank")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("rank not sorted by descending score")
		}
	}
}

// An Engine keeps no state per label pair between matches: after 16 pairs
// with distinct vocabularies, the collected heap holds little more than it
// did before them. Two GCs empty the sync.Pools of pooled pair tables and
// name matchers, so only state the Engine itself pins can remain.
func TestEngineRetainsNoLabelState(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]*qmatch.Schema, 16)
	for i := range pairs {
		src := synth.Generate(synth.Config{Seed: int64(2 * i), Elements: 60})
		tgt := synth.Generate(synth.Config{Seed: int64(2*i + 1), Elements: 60})
		pairs[i] = [2]*qmatch.Schema{qmatch.FromTree(src), qmatch.FromTree(tgt)}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for _, p := range pairs {
		eng.Match(p[0], p[1])
	}
	grown := heap() - before
	runtime.KeepAlive(eng)
	runtime.KeepAlive(pairs)
	if grown >= 512<<10 {
		t.Errorf("heap grew %d KiB over 16 matches on one Engine, want < 512 KiB", grown>>10)
	}
}

// A warm Engine.Match of an 80×1000 pair allocates a small fraction of its
// 9 MB pair table: the table comes from the arena pool, and selection
// copies only the cells that pass the label gate and the threshold. The
// 2 MiB ceiling trips if selection copies the table again (~12 MiB per
// match) or the fill stops drawing from the pool. The smallest of 5 runs
// discounts a pool refill after a GC.
func TestLargeMatchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool retention and alloc counts")
	}
	src := qmatch.FromTree(synth.Generate(synth.Config{Seed: 11, Elements: 80, MaxDepth: 6, MaxChildren: 8}))
	tgt := qmatch.FromTree(synth.Generate(synth.Config{Seed: 12, Elements: 1000, MaxDepth: 7, MaxChildren: 10}))
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	eng.Match(src, tgt) // warm the name matchers and the buffer pool
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.Match(src, tgt)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 2<<20 {
		t.Errorf("80x1000 Engine.Match allocates %d KiB, regression ceiling is 2048 KiB", least>>10)
	}
}

// Engines with the built-in thesaurus and no custom one share
// lingo.Default() instead of merging a copy of its edges each: building
// one allocates 9 objects, where a per-Engine merge of the built-in edges
// allocated 626.
func TestNewEngineAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs alloc counts")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := qmatch.NewEngine(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("NewEngine = %.0f allocs/run, regression ceiling is 100", allocs)
	}
}

// A custom thesaurus is merged into a fresh copy, never into the shared
// built-in one, and its hypernym specifics are thesaurus terms: "Trucks"
// reaches "Vehicle" only through the singular "truck", the specific end of
// the custom edge.
func TestWithThesaurusMergesIntoCopy(t *testing.T) {
	size := lingo.Default().Size()
	th := qmatch.NewThesaurus()
	th.AddHypernym("vehicle", "truck")
	eng, err := qmatch.NewEngine(qmatch.WithThesaurus(th))
	if err != nil {
		t.Fatal(err)
	}
	if got := lingo.Default().Size(); got != size {
		t.Fatalf("building a WithThesaurus Engine changed the built-in thesaurus: %d edges, want %d", got, size)
	}
	leaf := func(name string) *qmatch.Schema {
		s, err := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="` + name + `" type="xs:string"/></xs:schema>`)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src, tgt := leaf("Trucks"), leaf("Vehicle")
	if got := eng.ExplainTop(src, tgt, 1); !strings.Contains(got, "label      0.850 (relaxed)") {
		t.Errorf("Trucks vs Vehicle with a custom vehicle→truck hypernym:\n%s\nwant a relaxed label match", got)
	}
	if r := qmatch.Match(src, tgt); len(r.Correspondences) != 0 {
		t.Errorf("Trucks vs Vehicle matched without the custom thesaurus: %v", r.Correspondences)
	}
}
