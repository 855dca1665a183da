package core

import (
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/obs"
	"qmatch/internal/synth"
)

// A traced sequential Tree records the intern and pair-table phases with
// full counts, and a traced Hybrid.Match adds the selection phase.
func TestTreeTraceSpans(t *testing.T) {
	p := dataset.POPair()
	h := NewHybrid(nil)
	tr := obs.NewTrace()
	h.Trace = tr
	h.Match(p.Source, p.Target)
	mt := tr.Finish()

	byPhase := map[obs.Phase]obs.Span{}
	for _, s := range mt.Spans {
		byPhase[s.Phase] = s
	}
	srcN, tgtN := len(p.Source.Nodes()), len(p.Target.Nodes())
	pt, ok := byPhase[obs.PhasePairTable]
	if !ok {
		t.Fatalf("no pairtable span: %+v", mt.Spans)
	}
	if pt.SrcNodes != srcN || pt.TgtNodes != tgtN || pt.Cells != int64(srcN*tgtN) {
		t.Fatalf("pairtable span counts = %+v, want %dx%d nodes, %d cells", pt, srcN, tgtN, srcN*tgtN)
	}
	if pt.Workers != 1 || pt.Partial {
		t.Fatalf("sequential complete fill span = %+v", pt)
	}
	in, ok := byPhase[obs.PhaseIntern]
	if !ok || in.Cells == 0 || in.SrcNodes == 0 {
		t.Fatalf("intern span missing or empty: %+v", in)
	}
	sel, ok := byPhase[obs.PhaseSelect]
	if !ok || sel.Selected == 0 || sel.Cells == 0 {
		t.Fatalf("select span missing or empty: %+v (PO pair must select something)", sel)
	}
}

// The parallel fill path must report its worker-pool width.
func TestTreeTraceParallelWorkers(t *testing.T) {
	src := synth.Generate(synth.Config{Seed: 7, Elements: 80, MaxDepth: 5, MaxChildren: 6})
	tgt, _ := synth.Derive(src, synth.Uniform(8, 0.2))
	m := NewMatcher(nil)
	m.Parallelism = 4
	tr := obs.NewTrace()
	m.Trace = tr
	m.Tree(src, tgt)
	mt := tr.Finish()
	for _, s := range mt.Spans {
		if s.Phase == obs.PhasePairTable {
			if s.Workers != 4 {
				t.Fatalf("parallel pairtable span workers = %d, want 4", s.Workers)
			}
			if s.Partial || s.Cells != int64(len(src.Nodes())*len(tgt.Nodes())) {
				t.Fatalf("complete parallel fill span = %+v", s)
			}
			return
		}
	}
	t.Fatalf("no pairtable span: %+v", mt.Spans)
}

// A fill whose Done signal is already closed must stop early, leave the
// trace with a closed, partial pair-table span, and report the cells
// computed so far instead of leaking an open span — the cancelled-MatchAll
// phase-accounting fix.
func TestTreeCancelledPartialSpans(t *testing.T) {
	done := make(chan struct{})
	close(done)
	for name, par := range map[string]int{"sequential": 1, "parallel": 4} {
		p := dataset.DCMDPair()
		m := NewMatcher(nil)
		m.Parallelism = par
		m.Done = done
		tr := obs.NewTrace()
		m.Trace = tr
		m.Tree(p.Source, p.Target)
		mt := tr.Finish()
		var pt *obs.Span
		for i := range mt.Spans {
			if mt.Spans[i].Phase == obs.PhasePairTable {
				pt = &mt.Spans[i]
			}
		}
		if pt == nil {
			t.Fatalf("%s: cancelled fill left no pairtable span: %+v", name, mt.Spans)
		}
		if !pt.Partial {
			t.Fatalf("%s: cancelled fill span not marked partial: %+v", name, pt)
		}
		total := int64(len(p.Source.Nodes()) * len(p.Target.Nodes()))
		if pt.Cells >= total {
			t.Fatalf("%s: cancelled fill claims %d of %d cells", name, pt.Cells, total)
		}
	}
}

// Cancellation must not corrupt the result: cells computed before the
// abort are identical to an uncancelled fill's.
func TestCancelledFillPrefixConsistent(t *testing.T) {
	p := dataset.DCMDPair()
	full := NewMatcher(nil).Tree(p.Source, p.Target)

	done := make(chan struct{})
	close(done)
	m := NewMatcher(nil)
	m.Done = done
	part := m.Tree(p.Source, p.Target)
	for i, s := range part.srcNodes {
		for j, tn := range part.tgtNodes {
			got, ok := part.Pair(s, tn)
			if !ok {
				continue
			}
			want, _ := full.Pair(part.srcNodes[i], part.tgtNodes[j])
			if got != want {
				t.Fatalf("cell (%d,%d) diverges after cancellation", i, j)
			}
		}
	}
}

// Tracing disabled (the default) must add zero allocations to the fill.
func TestTraceDisabledAddsNoAllocs(t *testing.T) {
	p := dataset.DCMDPair()
	m := NewMatcher(nil)
	m.Tree(p.Source, p.Target) // warm memo caches
	base := testing.AllocsPerRun(5, func() {
		m.Tree(p.Source, p.Target)
	})
	// Same matcher, still no trace: the nil-check path must not have
	// drifted from the arena-era ceiling (see TestTreeAllocsBounded; this
	// loop never Releases, so it sits slightly above the pooled number).
	if base > 700 {
		t.Fatalf("untraced Tree = %.0f allocs/run, regression ceiling is 700", base)
	}
}
