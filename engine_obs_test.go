package qmatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qmatch"
	"qmatch/internal/obs"
)

// observedGrid builds the sources×targets grid of the small corpus pairs.
func observedGrid() (sources, targets []*qmatch.Schema) {
	for _, p := range enginePairs() {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	return sources, targets
}

// TestTraceGolden pins the MatchTrace wire format on the purchase-order
// example: phase names, span order and the deterministic counts. Wall
// times are zeroed before comparing — they are the only nondeterministic
// fields. Regenerate deliberately with `go test -run TraceGolden -update ./`.
func TestTraceGolden(t *testing.T) {
	src, tgt := poPairXSD(t)
	eng, err := qmatch.NewEngine(
		qmatch.WithParallelism(1), // deterministic workers field
		qmatch.WithObserver(qmatch.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	report := eng.Match(src, tgt)
	if report.Trace == nil {
		t.Fatal("tracing engine attached no trace")
	}
	norm := *report.Trace
	norm.TotalNs = 0
	norm.Spans = append([]qmatch.TraceSpan(nil), report.Trace.Spans...)
	for i := range norm.Spans {
		norm.Spans[i].StartNs = 0
		norm.Spans[i].DurationNs = 0
	}
	got, err := json.MarshalIndent(&norm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace wire format drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// An Engine without Observer.Tracing must never attach a trace — the wire
// format stays exactly as before the instrumentation existed.
func TestTraceOffByDefault(t *testing.T) {
	src, tgt := poPairXSD(t)
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if report := eng.Match(src, tgt); report.Trace != nil {
		t.Fatalf("default engine attached a trace: %+v", report.Trace)
	}
	eng, err = qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	if report := eng.Match(src, tgt); report.Trace != nil {
		t.Fatal("metrics-only engine attached a trace")
	}
}

// Per-match counters, the duration histogram and the per-phase wall-time
// counters must survive a parallel MatchAll with concurrent scrapes — the
// registry is hammered from the worker pool while WriteMetrics and
// WriteMetricsJSON read it (run under -race in CI).
func TestMetricsConcurrentMatchAll(t *testing.T) {
	sources, targets := observedGrid()
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(4),
		qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // scrape concurrently with the batch
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sink bytes.Buffer
				eng.WriteMetrics(&sink)
				sink.Reset()
				eng.WriteMetricsJSON(&sink)
			}
		}
	}()
	if _, err := eng.MatchAll(context.Background(), sources, targets); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	jobs := int64(len(sources) * len(targets))
	if got, ok := eng.MetricValue(qmatch.MetricMatches); !ok || got != jobs {
		t.Fatalf("matches counter = %d, %v; want %d", got, ok, jobs)
	}
	var wantCells int64
	for _, s := range sources {
		for _, tg := range targets {
			wantCells += int64(s.Size()) * int64(tg.Size())
		}
	}
	if got, _ := eng.MetricValue(qmatch.MetricCells); got != wantCells {
		t.Fatalf("cells counter = %d, want %d", got, wantCells)
	}
	if got, _ := eng.MetricValue(qmatch.MetricWorkers); got != 4 {
		t.Fatalf("workers gauge = %d, want 4", got)
	}
	if got, _ := eng.MetricValue(qmatch.MetricInflight); got != 0 {
		t.Fatalf("inflight gauge = %d after batch, want 0", got)
	}

	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	var buf bytes.Buffer
	if err := eng.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histograms[qmatch.MetricDuration].Count != uint64(jobs) {
		t.Fatalf("duration histogram count = %d, want %d",
			snap.Histograms[qmatch.MetricDuration].Count, jobs)
	}
	for _, phase := range []string{"intern", "pairtable", "select"} {
		name := `qmatch_phase_ns_total{phase="` + phase + `"}`
		if snap.Counters[name] <= 0 {
			t.Errorf("phase counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}

	buf.Reset()
	if err := eng.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE qmatch_matches_total counter",
		"# TYPE qmatch_match_duration_seconds histogram",
		`qmatch_match_duration_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, prom)
		}
	}
}

// A cancelled batch must land every job in the cancelled counter — the
// never-started jobs via MatchAll's completion accounting, the in-flight
// partially-filled ones via their partial trace spans. Nothing may be
// double-counted: cancelled + completed == jobs.
func TestMetricsCancelledMatchAll(t *testing.T) {
	sources, targets := observedGrid()
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(2),
		qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MatchAll(ctx, sources, targets); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	jobs := int64(len(sources) * len(targets))
	cancelled, _ := eng.MetricValue(qmatch.MetricCancelled)
	matches, _ := eng.MetricValue(qmatch.MetricMatches)
	if cancelled == 0 {
		t.Fatal("cancelled batch recorded no cancelled matches")
	}
	if cancelled+matches != jobs {
		t.Fatalf("cancelled %d + matches %d != jobs %d", cancelled, matches, jobs)
	}
}

// The disabled path is the acceptance gate: an Engine with a zero-valued
// Observer must allocate exactly as much per match as an Engine built
// without one.
func TestDisabledObserverAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool retention and alloc counts")
	}
	src, tgt := poPairXSD(t)
	plain, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	zero, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{}))
	if err != nil {
		t.Fatal(err)
	}
	plain.Match(src, tgt) // warm the name-matcher memos so runs are steady-state
	zero.Match(src, tgt)
	// Min of interleaved batches: a GC emptying the matcher pool mid-batch
	// shows up as a spurious alloc in one batch, not in all three.
	measure := func(eng *qmatch.Engine) float64 {
		best := testing.AllocsPerRun(10, func() { eng.Match(src, tgt) })
		for i := 0; i < 2; i++ {
			if a := testing.AllocsPerRun(10, func() { eng.Match(src, tgt) }); a < best {
				best = a
			}
		}
		return best
	}
	base := measure(plain)
	got := measure(zero)
	if got != base {
		t.Fatalf("zero-valued Observer changed Match allocations: %.1f vs %.1f allocs/run", got, base)
	}
}

// A logger-only Observer emits structured lifecycle events for Match,
// MatchAll and Rank without enabling metrics or tracing.
func TestLoggerLifecycleEvents(t *testing.T) {
	src, tgt := poPairXSD(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	eng, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Logger: logger}))
	if err != nil {
		t.Fatal(err)
	}
	if report := eng.Match(src, tgt); report.Trace != nil {
		t.Fatal("logging-only engine attached a trace")
	}
	if _, err := eng.MatchAll(context.Background(),
		[]*qmatch.Schema{src}, []*qmatch.Schema{tgt}); err != nil {
		t.Fatal(err)
	}
	eng.Rank(src, []*qmatch.Schema{tgt})
	s := buf.String()
	for _, want := range []string{
		`"msg":"match complete"`, `"algorithm":"hybrid"`, `"treeQoM"`,
		`"msg":"matchall start"`, `"msg":"matchall complete"`,
		`"msg":"rank complete"`, `"corpus":1`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("log stream missing %s:\n%s", want, s)
		}
	}
}

// Rank runs every corpus candidate through the same observed path as
// Match: on a Metrics+Tracing Engine, ranking N schemas counts N matches,
// and so does a compiled rank over its k prefilter survivors.
func TestRankCountsMatches(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true, Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	query, corpus := rankCorpus(t)
	eng.Rank(query, corpus)
	if got, _ := eng.MetricValue(qmatch.MetricMatches); got != int64(len(corpus)) {
		t.Fatalf("Rank over %d schemas counted %d matches", len(corpus), got)
	}

	cq, err := qmatch.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	ccorpus := make([]*qmatch.CompiledSchema, len(corpus))
	for i, s := range corpus {
		if ccorpus[i], err = qmatch.Compile(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RankCompiled(context.Background(), cq, ccorpus, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.MetricValue(qmatch.MetricMatches); got != int64(len(corpus))+2 {
		t.Fatalf("RankCompiled with k=2 counted %d matches, want 2", got-int64(len(corpus)))
	}
}

// RankContext hands a ctx trace sink the trace of the shared kernel's fill
// first, one intern span over the query's vocabulary and the corpus'
// union, then one finished match trace per corpus schema, each rooted at a
// match span — what qmatchd grafts into the request trace of /v1/rank and
// /v1/search.
func TestRankContextTraceSink(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true, Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	query, corpus := rankCorpus(t)
	var mu sync.Mutex
	var traces []*obs.MatchTrace
	ctx := obs.ContextWithTraceSink(context.Background(), func(mt *obs.MatchTrace) {
		mu.Lock()
		traces = append(traces, mt)
		mu.Unlock()
	})
	if _, err := eng.RankContext(ctx, query, corpus); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(corpus)+1 {
		t.Fatalf("sink received %d traces, want %d", len(traces), len(corpus)+1)
	}
	labels := map[string]bool{}
	for _, n := range query.Tree().Nodes() {
		labels[n.Label] = true
	}
	fill := traces[0].Spans
	if len(fill) != 1 || fill[0].Phase != obs.PhaseIntern || fill[0].SrcNodes != len(labels) || fill[0].Cells == 0 {
		t.Errorf("first trace is not the shared kernel's fill: %+v", fill)
	}
	for i, mt := range traces[1:] {
		if len(mt.Spans) == 0 || mt.Spans[0].Phase != obs.PhaseMatch {
			t.Errorf("trace %d is not rooted at a match span: %+v", i+1, mt.Spans)
		}
	}
}

// expvar publication is process-global; one registration must expose the
// registry as JSON and a second Publish under the same name must not panic.
func TestPublishExpvar(t *testing.T) {
	src, tgt := poPairXSD(t)
	eng, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Match(src, tgt)
	eng.PublishExpvar("qmatch_engine_test")
	eng.PublishExpvar("qmatch_engine_test") // second call: no panic
}
