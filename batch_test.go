package qmatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qmatch/internal/core"
	"qmatch/internal/obs"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// batchCorpus returns a query, a corpus and a grid in the shapes a batch
// must not special-case: the corpus lists one schema twice and holds the
// query, the grid's sources are also its targets, and big has four times
// the vocabulary of the other schemas. The rest are derivations of two
// synthetic 20–100-element families, so their vocabularies overlap as
// registry candidates' do.
func batchCorpus() (query *Schema, corpus, sources, targets []*Schema) {
	var fam []*Schema
	for f, n := range []int{40, 90} {
		base := synth.Generate(synth.Config{Seed: int64(101 + f), Elements: n, MaxDepth: 4, MaxChildren: 6})
		for v := 0; v < 3; v++ {
			d, _ := synth.Derive(base, synth.Uniform(int64(10*f+v), 0.3))
			fam = append(fam, FromTree(d))
		}
	}
	big := FromTree(synth.Generate(synth.Config{Seed: 107, Elements: 400, MaxDepth: 6, MaxChildren: 9}))
	query = fam[0]
	corpus = []*Schema{fam[3], fam[4], query, fam[1], fam[1], big, fam[5], fam[2]}
	sources = []*Schema{fam[1], query, fam[3]}
	targets = []*Schema{fam[3], fam[4], big, query, fam[5], fam[2]}
	return query, corpus, sources, targets
}

// unionEntries is the size of a kernel over the union of sv × the union of
// tv: label entries plus property entries.
func unionEntries(sv, tv []*core.Interned) int64 {
	count := func(vs []*core.Interned) (int64, int64) {
		labels, props := map[string]bool{}, map[xmltree.Properties]bool{}
		for _, v := range vs {
			for _, l := range v.Labels {
				labels[l] = true
			}
			for _, p := range v.Props {
				props[p] = true
			}
		}
		return int64(len(labels)), int64(len(props))
	}
	ls, ps := count(sv)
	lt, pt := count(tv)
	return ls*lt + ps*pt
}

// splitBudget returns a budget under which the batch of sv × tv splits
// into at least two shared target groups, the first of two targets, and
// leaves the target at index solo over the budget alone, and checks that
// it does.
func splitBudget(t *testing.T, sv, tv []*core.Interned, solo int) int64 {
	t.Helper()
	budget := unionEntries(sv, tv[:2])
	for j := range tv {
		if j != solo {
			budget = max(budget, unionEntries(sv, tv[j:j+1]))
		}
	}
	b := core.NewBatch(sv)
	defer b.Release()
	var groups []int
	for lo, hi := 0, 0; lo < len(tv); lo = hi {
		var ok bool
		if hi, ok = b.Group(tv, lo, budget); !ok {
			if lo != solo {
				t.Fatalf("budget %d leaves target %d solo, want only %d", budget, lo, solo)
			}
			continue
		}
		groups = append(groups, hi-lo)
	}
	if len(groups) < 2 || groups[0] != 2 || unionEntries(sv, tv[solo:solo+1]) <= budget {
		t.Fatalf("budget %d groups the targets %v with target %d solo, want at least two groups, the first of two", budget, groups, solo)
	}
	return budget
}

// setBudget lowers batchBudget for the rest of the test.
func setBudget(t *testing.T, b int64) {
	old := batchBudget
	batchBudget = b
	t.Cleanup(func() { batchBudget = old })
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRanking demands that a batch ranking equal the ranking of per-pair
// reports: the same order, and each entry's report bytes equal to its pair's.
func checkRanking(t *testing.T, name string, got []Ranked, want []*Report, corpus []*Schema) {
	t.Helper()
	order := ranked(want, corpus, nil)
	if len(got) != len(order) {
		t.Fatalf("%s: %d ranked, want %d", name, len(got), len(order))
	}
	for r, g := range got {
		if g.Index != order[r].Index || g.Schema != order[r].Schema {
			t.Fatalf("%s: rank %d is corpus %d, want %d", name, r, g.Index, order[r].Index)
		}
		w := want[g.Index]
		rep := &Report{Algorithm: w.Algorithm, Correspondences: g.Correspondences, TreeQoM: g.Score}
		if !bytes.Equal(reportJSON(t, rep), reportJSON(t, w)) {
			t.Fatalf("%s: corpus %d's report differs from its per-pair match", name, g.Index)
		}
	}
}

// A batch reads one shared kernel per target group; its reports must equal
// per-pair matches byte for byte, whatever the grouping: one group, groups
// split by the budget, and a target over the budget alone.
func TestBatchEqualsPerPair(t *testing.T) {
	query, corpus, sources, targets := batchCorpus()
	compile := func(s *Schema) *CompiledSchema {
		cs, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	cq := compile(query)
	ccorpus := make([]*CompiledSchema, len(corpus))
	cv := make([]*core.Interned, len(corpus))
	for i, s := range corpus {
		ccorpus[i] = compile(s)
		cv[i] = ccorpus[i].art.Interned
	}
	rankBudget := splitBudget(t, []*core.Interned{cq.art.Interned}, cv, 5)
	gridBudget := splitBudget(t, internAll(sources), internAll(targets), 2)

	for _, par := range []int{1, 3} {
		eng, err := NewEngine(WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		var want, wantCompiled []*Report
		for i, s := range corpus {
			want = append(want, eng.Match(query, s))
			wantCompiled = append(wantCompiled, eng.MatchCompiled(cq, ccorpus[i]))
		}
		for _, budget := range []int64{batchBudget, rankBudget, gridBudget} {
			t.Run(fmt.Sprintf("parallelism %d budget %d", par, budget), func(t *testing.T) {
				setBudget(t, budget)
				got, err := eng.RankCompiled(context.Background(), cq, ccorpus, 0)
				if err != nil {
					t.Fatal(err)
				}
				checkRanking(t, "RankCompiled", got, wantCompiled, corpus)
				checkRanking(t, "Rank", eng.Rank(query, corpus), want, corpus)
				if got, err = eng.RankContext(context.Background(), query, corpus); err != nil {
					t.Fatal(err)
				}
				checkRanking(t, "RankContext", got, want, corpus)

				grid, err := eng.MatchAll(context.Background(), sources, targets)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range sources {
					for j, tg := range targets {
						if !bytes.Equal(reportJSON(t, grid[i][j]), reportJSON(t, eng.Match(s, tg))) {
							t.Fatalf("MatchAll cell (%d, %d) differs from its per-pair match", i, j)
						}
					}
				}
			})
		}
	}
}

// A context that expires while the shared kernel fills cuts the fill short:
// the call returns ctx.Err() and no result, the fill's trace marks its
// intern span partial, and every job counts as cancelled.
func TestBatchCancelledDuringSharedFill(t *testing.T) {
	setBudget(t, 1<<40)
	compile := func(seed int64) *CompiledSchema {
		cs, err := Compile(FromTree(synth.Generate(synth.Config{Seed: seed, Elements: 700, MaxDepth: 6, MaxChildren: 10})))
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	query := compile(201)
	corpus := []*CompiledSchema{compile(202), compile(203), compile(204)}
	eng, err := NewEngine(WithParallelism(1), WithObserver(Observer{Metrics: true, Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	// The fill scores about 1.5 million label pairs. A deadline that
	// passes before the fill begins is doubled and tried again.
	for timeout := time.Millisecond; ; timeout *= 2 {
		before, _ := eng.MetricValue(MetricCancelled)
		var traces []*obs.MatchTrace
		ctx, cancel := context.WithTimeout(obs.ContextWithTraceSink(context.Background(),
			func(mt *obs.MatchTrace) { traces = append(traces, mt) }), timeout)
		got, err := eng.RankCompiled(ctx, query, corpus, 0)
		cancel()
		if len(traces) == 0 && timeout < time.Second {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) || got != nil {
			t.Fatalf("got (%v, %v), want (nil, context.DeadlineExceeded)", got, err)
		}
		if len(traces) != 1 || len(traces[0].Spans) != 1 || traces[0].Spans[0].Phase != obs.PhaseIntern || !traces[0].Spans[0].Partial {
			t.Fatalf("traces %+v, want one partial intern span: the shared fill, cut short", traces)
		}
		cancelled, _ := eng.MetricValue(MetricCancelled)
		matches, _ := eng.MetricValue(MetricMatches)
		if cancelled-before != int64(len(corpus)) || matches != 0 {
			t.Fatalf("cancelled %d, matches %d; want every one of %d jobs cancelled", cancelled-before, matches, len(corpus))
		}
		return
	}
}

// On a metrics Engine, the shared fill's intern span is folded into the
// intern phase metrics once, beside each cell's own intern span.
func TestBatchFillCountsInInternPhase(t *testing.T) {
	query, corpus, _, _ := batchCorpus()
	eng, err := NewEngine(WithParallelism(2), WithObserver(Observer{Metrics: true, Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var internNs, spans int64
	var first *obs.MatchTrace
	ctx := obs.ContextWithTraceSink(context.Background(), func(mt *obs.MatchTrace) {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = mt
		}
		for _, sp := range mt.Spans {
			if sp.Phase == obs.PhaseIntern {
				internNs += sp.DurationNs
				spans++
			}
		}
	})
	if _, err := eng.RankContext(ctx, query, corpus); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.Spans[0].Phase != obs.PhaseIntern || first.Spans[0].Cells == 0 {
		t.Fatalf("first trace %+v is not the shared fill", first)
	}
	if spans != int64(len(corpus))+1 {
		t.Fatalf("%d intern spans, want one per cell and one for the shared fill", spans)
	}
	if got, _ := eng.MetricValue(phaseMetric(obs.PhaseIntern)); got != internNs {
		t.Errorf("intern phase counter %d ns, want the %d ns of every intern span", got, internNs)
	}
	var snap struct {
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	var buf bytes.Buffer
	if err := eng.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Histograms[phaseDurationMetric(obs.PhaseIntern)].Count; got != spans {
		t.Errorf("intern duration histogram counts %d spans, want %d", got, spans)
	}
}
