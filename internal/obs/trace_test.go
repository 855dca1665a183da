package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan(PhasePairTable)
	sp.SetNodes(1, 2)
	sp.SetCells(3)
	sp.SetWorkers(4)
	sp.SetSelected(5)
	sp.MarkPartial()
	sp.End()
	if mt := tr.Finish(); mt != nil {
		t.Fatal("nil trace finished non-nil")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := tr.StartSpan(PhaseIntern)
		s.SetCells(1)
		s.End()
	}); allocs != 0 {
		t.Fatalf("disabled trace path allocated %.1f/op, want 0", allocs)
	}
}

func TestTraceSpansOrderedAndCounted(t *testing.T) {
	tr := NewTrace()
	a := tr.StartSpan(PhaseIntern)
	a.SetNodes(10, 9)
	a.SetCells(90)
	a.End()
	b := tr.StartSpan(PhasePairTable)
	b.SetWorkers(4)
	b.End()
	c := tr.StartSpan(PhaseSelect)
	c.SetSelected(7)
	c.End()
	mt := tr.Finish()
	if len(mt.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(mt.Spans))
	}
	phases := []Phase{PhaseIntern, PhasePairTable, PhaseSelect}
	for i, s := range mt.Spans {
		if s.Phase != phases[i] {
			t.Fatalf("span %d phase = %s, want %s", i, s.Phase, phases[i])
		}
		if s.StartNs < 0 || s.DurationNs < 0 {
			t.Fatalf("span %d has negative timing: %+v", i, s)
		}
		if s.Partial {
			t.Fatalf("span %d marked partial on the clean path", i)
		}
	}
	if mt.Spans[0].SrcNodes != 10 || mt.Spans[0].Cells != 90 ||
		mt.Spans[1].Workers != 4 || mt.Spans[2].Selected != 7 {
		t.Fatalf("span counts lost: %+v", mt.Spans)
	}
	if mt.TotalNs < mt.Spans[2].StartNs {
		t.Fatal("total shorter than last span start")
	}
}

// Finish must close any span still open (the cancelled-MatchAll path) and
// mark it partial; double End and End-after-Finish must be no-ops.
func TestFinishClosesOpenSpansPartial(t *testing.T) {
	tr := NewTrace()
	done := tr.StartSpan(PhaseIntern)
	done.End()
	leaked := tr.StartSpan(PhasePairTable)
	leaked.SetCells(123)
	mt := tr.Finish()
	if len(mt.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(mt.Spans))
	}
	var pt *Span
	for i := range mt.Spans {
		if mt.Spans[i].Phase == PhasePairTable {
			pt = &mt.Spans[i]
		}
	}
	if pt == nil || !pt.Partial || pt.Cells != 123 {
		t.Fatalf("open span not force-closed partial with counts: %+v", mt.Spans)
	}
	leaked.End() // after Finish: no-op, must not duplicate
	done.End()   // double End: no-op
	if mt2 := tr.Finish(); len(mt2.Spans) != 2 {
		t.Fatalf("second Finish changed spans: %d", len(mt2.Spans))
	}
	if sp := tr.StartSpan(PhaseSelect); sp != nil {
		t.Fatal("StartSpan after Finish returned a live span")
	}
}

// Spans begin and end on many goroutines at once (the parallel fill's worker
// pool); run with -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.StartSpan(PhasePairTable)
				sp.SetCells(int64(j))
				sp.End()
			}
		}()
	}
	wg.Wait()
	mt := tr.Finish()
	if len(mt.Spans) != 16*200 {
		t.Fatalf("got %d spans, want %d", len(mt.Spans), 16*200)
	}
}

func TestMatchTraceFormatAndJSON(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan(PhasePairTable)
	sp.SetNodes(10, 9)
	sp.SetCells(90)
	sp.SetWorkers(2)
	sp.End()
	sel := tr.StartSpan(PhaseSelect)
	sel.SetSelected(4)
	sel.End()
	mt := tr.Finish()

	text := mt.Format()
	for _, want := range []string{"phase breakdown", "pairtable", "cells=90", "workers=2", "selected=4"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Format() missing %q:\n%s", want, text)
		}
	}
	var b strings.Builder
	if err := mt.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"phase": "pairtable"`) {
		t.Fatalf("JSON missing phase: %s", b.String())
	}
}
