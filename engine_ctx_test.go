package qmatch_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"qmatch"
	"qmatch/internal/dataset"
)

// MatchContext with a live context must behave exactly like Match: same
// report, same wire bytes, nil error.
func TestMatchContextEquivalentToMatch(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := poPairXSD(t)

	report, err := eng.MatchContext(context.Background(), src, tgt)
	if err != nil {
		t.Fatalf("MatchContext: %v", err)
	}
	var got, want bytes.Buffer
	if err := report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := eng.Match(src, tgt).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("MatchContext report differs from Match:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
}

// A nil context is tolerated and treated as background.
func TestMatchContextNilContext(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := poPairXSD(t)
	report, err := eng.MatchContext(nil, src, tgt)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if report == nil || report.TreeQoM <= 0 {
		t.Errorf("bad report: %+v", report)
	}
}

// A context already expired when MatchContext is called still yields a
// (partial) report alongside ctx.Err(); with a Tracing engine the aborted
// pair-table fill is visible as a span marked partial — this is the
// mechanism qmatchd uses for its 504-with-partial-trace bodies.
func TestMatchContextPreExpired(t *testing.T) {
	eng, err := qmatch.NewEngine(qmatch.WithObserver(qmatch.Observer{Tracing: true, Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	src, tgt := poPairXSD(t)
	report, err := eng.MatchContext(ctx, src, tgt)
	if err == nil {
		t.Fatal("expected ctx.Err() from a cancelled context")
	}
	if report == nil {
		t.Fatal("cancelled match must still return the partial report")
	}
	if report.Trace == nil {
		t.Fatal("Tracing engine returned no trace on the partial report")
	}
	partial := false
	for _, sp := range report.Trace.Spans {
		partial = partial || sp.Partial
	}
	if !partial {
		t.Errorf("no partial span recorded: %+v", report.Trace.Spans)
	}
	// The aborted match counts as cancelled, not completed.
	if v, ok := eng.MetricValue(qmatch.MetricCancelled); !ok || v != 1 {
		t.Errorf("cancelled counter = %d (%v), want 1", v, ok)
	}
	if v, _ := eng.MetricValue(qmatch.MetricMatches); v != 0 {
		t.Errorf("completed counter = %d, want 0", v)
	}
}

// After a cancelled call the engine stays healthy: the next uncancelled
// MatchContext on the same engine completes normally.
func TestMatchContextRecoversAfterCancellation(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := poPairXSD(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MatchContext(ctx, src, tgt); err == nil {
		t.Fatal("expected cancellation error")
	}
	report, err := eng.MatchContext(context.Background(), src, tgt)
	if err != nil {
		t.Fatalf("engine unhealthy after cancellation: %v", err)
	}
	want := eng.Match(src, tgt)
	if report.TreeQoM != want.TreeQoM || len(report.Correspondences) != len(want.Correspondences) {
		t.Errorf("post-cancellation report differs: %+v vs %+v", report, want)
	}
}

// proteinSchemas returns the corpus' largest pair, PIR × PDB, whose label
// kernel takes most of its fill.
func proteinSchemas() (src, tgt *qmatch.Schema) {
	p := dataset.ProteinPair()
	return qmatch.FromTree(p.Source), qmatch.FromTree(p.Target)
}

func tracingEngine(t *testing.T, par int) *qmatch.Engine {
	t.Helper()
	eng, err := qmatch.NewEngine(qmatch.WithParallelism(par), qmatch.WithObserver(qmatch.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// Cancellation reaches the label kernel: a pre-cancelled Protein match
// stops building it, and its intern span comes back partial.
func TestMatchContextPreCancelledCutsKernel(t *testing.T) {
	src, tgt := proteinSchemas()
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		report, err := tracingEngine(t, par).MatchContext(ctx, src, tgt)
		if err == nil {
			t.Fatalf("parallelism %d: expected ctx.Err() from a cancelled context", par)
		}
		var intern *qmatch.TraceSpan
		for i := range report.Trace.Spans {
			if report.Trace.Spans[i].Phase == "intern" {
				intern = &report.Trace.Spans[i]
			}
		}
		if intern == nil || !intern.Partial {
			t.Errorf("parallelism %d: intern span %+v, want one marked partial", par, intern)
		}
	}
}

// A 5 ms deadline cuts a Protein match short inside the label kernel, so
// the match returns in under half the time of a full one (the fastest of
// two, measured here on the same engine).
func TestMatchContextDeadlineCutsKernel(t *testing.T) {
	src, tgt := proteinSchemas()
	for _, par := range []int{1, 2} {
		eng := tracingEngine(t, par)
		full := time.Duration(math.MaxInt64)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if _, err := eng.MatchContext(context.Background(), src, tgt); err != nil {
				t.Fatal(err)
			}
			full = min(full, time.Since(start))
		}
		for i := 0; i < 2; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			start := time.Now()
			_, err := eng.MatchContext(ctx, src, tgt)
			elapsed := time.Since(start)
			cancel()
			if err == nil {
				t.Fatalf("parallelism %d: a 5 ms deadline did not cut the match short", par)
			}
			if elapsed >= full/2 {
				t.Errorf("parallelism %d: deadline match returned after %v, want under half of a full match's %v", par, elapsed, full)
			}
		}
	}
}
