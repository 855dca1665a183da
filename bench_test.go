// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus the extension and ablation experiments of DESIGN.md §5. Run:
//
//	go test -bench=. -benchmem
//
// Figure 4's absolute milliseconds are hardware-specific; these benchmarks
// reproduce the *shape* — hybrid ≥ structural/linguistic cost, superlinear
// growth with workload size (cf. EXPERIMENTS.md).
package qmatch_test

import (
	"context"
	"testing"

	"qmatch"
	"qmatch/internal/bench"
	"qmatch/internal/core"
	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/match"
	"qmatch/internal/synth"
	"qmatch/internal/xsd"
)

// ------------------------------------------------------------- Table 1

// BenchmarkTable1Characteristics measures corpus construction and verifies
// the Table 1 row values every iteration.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) != 8 || rows[7].Elements != 3753 {
			b.Fatal("Table 1 rows wrong")
		}
	}
}

// ------------------------------------------------------------- Table 2

// BenchmarkTable2WeightSweep runs the weight-determination grid over the
// two smallest domains (the full sweep is cmd/qbench -table 2).
func BenchmarkTable2WeightSweep(b *testing.B) {
	pairs := []dataset.Pair{dataset.POPair(), dataset.BookPair()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := bench.Table2WeightSweep(pairs)
		if len(results) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// ------------------------------------------------------------- Figure 4

// benchMatch runs one algorithm on one workload per iteration — one cell
// of Figure 4.
func benchMatch(b *testing.B, alg match.Algorithm, p dataset.Pair) {
	b.Helper()
	b.ReportMetric(float64(p.TotalElements()), "elements")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Match(p.Source, p.Target)
	}
}

func BenchmarkFigure4Runtime(b *testing.B) {
	algs := bench.DefaultAlgorithms()
	for _, p := range dataset.Pairs() {
		p := p
		for _, alg := range algs.List() {
			alg := alg
			b.Run(p.Name+"/"+alg.Name(), func(b *testing.B) {
				benchMatch(b, alg, p)
			})
		}
	}
}

// ------------------------------------------------------------- Figure 5

// BenchmarkFigure5Quality evaluates all three algorithms on the three
// smaller domains and asserts the headline shape (hybrid wins) every
// iteration. The protein domain's quality run is covered by
// BenchmarkFigure4Runtime/Protein and the internal/bench tests.
func BenchmarkFigure5Quality(b *testing.B) {
	algs := bench.DefaultAlgorithms()
	pairs := []dataset.Pair{dataset.POPair(), dataset.BookPair(), dataset.DCMDPair()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			h := match.Evaluate(algs.Hybrid.Match(p.Source, p.Target), p.Gold)
			l := match.Evaluate(algs.Linguistic.Match(p.Source, p.Target), p.Gold)
			if h.Overall < l.Overall {
				b.Fatalf("%s: hybrid below linguistic", p.Name)
			}
		}
	}
}

// ------------------------------------------------------------- Figure 6

func BenchmarkFigure6Counts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure6Counts()
		if len(rows) != 3 {
			b.Fatal("want PO, Book, XBench rows")
		}
	}
}

// ------------------------------------------------------------- Figure 9

func BenchmarkFigure9Extremes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Figure9Extremes()
		if len(rows) != 3 {
			b.Fatal("want 3 algorithms")
		}
	}
}

// ------------------------------------------------------- Extensions

// BenchmarkScalability extends Figure 4 with synthetic workloads.
func BenchmarkScalability(b *testing.B) {
	algs := bench.DefaultAlgorithms()
	for _, n := range []int{100, 400, 800} {
		src := synth.Generate(synth.Config{Seed: int64(n), Elements: n, MaxDepth: 6, MaxChildren: 10})
		tgt, _ := synth.Derive(src, synth.Uniform(int64(n)+1, 0.3))
		p := dataset.Pair{Name: "synthetic", Source: src, Target: tgt}
		for _, alg := range algs.List() {
			alg := alg
			b.Run(alg.Name()+"/"+itoa(n), func(b *testing.B) {
				benchMatch(b, alg, p)
			})
		}
	}
}

// BenchmarkMatchAll measures Engine.MatchAll over a grid of synthetic
// schema pairs at worker bounds 1 and 4. On multicore hardware the pairs
// are independent jobs, so the par4 series should approach a 4x speedup
// while producing bit-identical reports (asserted by
// TestMatchAllEqualsSequentialMatch and qbench -ext parallel).
func BenchmarkMatchAll(b *testing.B) {
	const n = 4
	sources := make([]*qmatch.Schema, n)
	targets := make([]*qmatch.Schema, n)
	for i := 0; i < n; i++ {
		root := synth.Generate(synth.Config{Seed: int64(100 + i), Elements: 120, MaxDepth: 5, MaxChildren: 8})
		variant, _ := synth.Derive(root, synth.Uniform(int64(200+i), 0.2))
		sources[i] = qmatch.FromTree(root)
		targets[i] = qmatch.FromTree(variant)
	}
	for _, par := range []int{1, 4} {
		par := par
		b.Run("par"+itoa(par), func(b *testing.B) {
			eng, err := qmatch.NewEngine(qmatch.WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.MatchAll(context.Background(), sources, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------- Ablations

// BenchmarkAblationLabelGate compares selection with and without the
// label-evidence gate (DESIGN.md §5).
func BenchmarkAblationLabelGate(b *testing.B) {
	p := dataset.POPair()
	gated := core.NewHybrid(nil)
	ungated := core.NewHybrid(nil)
	ungated.RequireLabelEvidence = false
	b.Run("gated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gated.Match(p.Source, p.Target)
		}
	})
	b.Run("ungated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ungated.Match(p.Source, p.Target)
		}
	})
}

// BenchmarkAblationChildThreshold sweeps Fig. 3's threshold.
func BenchmarkAblationChildThreshold(b *testing.B) {
	p := dataset.DCMDPair()
	for _, th := range []float64{0, 0.25, 0.5, 0.75} {
		th := th
		b.Run(ftoa(th), func(b *testing.B) {
			h := core.NewHybrid(nil)
			h.Threshold = th
			for i := 0; i < b.N; i++ {
				h.Match(p.Source, p.Target)
			}
		})
	}
}

// BenchmarkAblationSelection compares 1:1 greedy selection vs unconstrained
// above-threshold selection.
func BenchmarkAblationSelection(b *testing.B) {
	p := dataset.DCMDPair()
	h := core.NewHybrid(nil)
	res := h.Tree(p.Source, p.Target)
	var scored []match.ScoredPair
	for _, pr := range res.Pairs() {
		scored = append(scored, match.ScoredPair{Source: pr.Source, Target: pr.Target, Score: pr.QoM.Value})
	}
	b.Run("greedy1to1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.Select(scored, 0.75)
		}
	})
	b.Run("unconstrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.SelectAll(scored, 0.75)
		}
	})
}

// ------------------------------------------------------ Micro-benches

func BenchmarkLinguisticNameMatch(b *testing.B) {
	m := lingo.NewNameMatcher(lingo.Default())
	pairs := [][2]string{
		{"PurchaseOrderNumber", "OrderNo"},
		{"UnitOfMeasure", "UOM"},
		{"ShippingAddress", "ShipTo"},
		{"CompletelyUnrelated", "SomethingElse"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		m.Match(p[0], p[1])
	}
}

func BenchmarkXSDParse(b *testing.B) {
	doc := xsd.Render(dataset.DCMDOrd())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xsd.ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXSDRender(b *testing.B) {
	tree := dataset.DCMDOrd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xsd.Render(tree)
	}
}

func BenchmarkQoMPairTable(b *testing.B) {
	p := dataset.DCMDPair()
	m := core.NewMatcher(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tree(p.Source, p.Target)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch f {
	case 0:
		return "0.00"
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.50"
	case 0.75:
		return "0.75"
	default:
		return "x"
	}
}
