package core

import (
	"fmt"
	"reflect"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/obs"
	"qmatch/internal/xmltree"
)

// evolutions is the synthetic schema-evolution suite: each entry mutates a
// clone of the tree in place, covering the registry's edit vocabulary.
var evolutions = []struct {
	name   string
	mutate func(t *testing.T, root *xmltree.Node)
}{
	{"add", func(t *testing.T, root *xmltree.Node) {
		inner := firstInner(root)
		inner.Add(xmltree.New("ArchiveFlag", xmltree.Elem("boolean")))
	}},
	{"rename", func(t *testing.T, root *xmltree.Node) {
		leafAt(root, 3).Label = "CompletelyRenamedElement"
	}},
	{"retype", func(t *testing.T, root *xmltree.Node) {
		n := leafAt(root, 1)
		n.Props.Type = "decimal"
	}},
	{"delete", func(t *testing.T, root *xmltree.Node) {
		inner := firstInner(root)
		inner.Children = inner.Children[:len(inner.Children)-1]
	}},
	{"rename+retype", func(t *testing.T, root *xmltree.Node) {
		n := leafAt(root, 5)
		n.Label = "RenamedAndRetyped"
		n.Props.Type = "hexBinary"
	}},
}

// firstInner returns the first non-root node with children.
func firstInner(root *xmltree.Node) *xmltree.Node {
	for _, n := range root.Nodes()[1:] {
		if !n.IsLeaf() {
			return n
		}
	}
	return root
}

// leafAt returns the i-th leaf in pre-order.
func leafAt(root *xmltree.Node, i int) *xmltree.Node {
	leaves := root.Leaves()
	return leaves[i%len(leaves)]
}

// RematchTarget must produce a table equal to a full re-match for every
// evolution, while rescoring strictly fewer cells than the grid (the
// PhaseRematch span carries the rescored count).
func TestRematchTargetEquivalence(t *testing.T) {
	for _, pair := range []dataset.Pair{dataset.DCMDPair(), dataset.POPair()} {
		for _, evo := range evolutions {
			t.Run(pair.Name+"/"+evo.name, func(t *testing.T) {
				newTgt := pair.Target.Clone()
				evo.mutate(t, newTgt)
				if xmltree.Equal(pair.Target, newTgt) {
					t.Fatal("mutation did not change the tree")
				}

				want := NewMatcher(nil).Tree(pair.Source, newTgt)

				m := NewMatcher(nil)
				prev := m.Tree(pair.Source, pair.Target)
				tr := obs.NewTrace()
				m.Trace = tr
				got, stats := m.RematchTarget(prev, newTgt)

				checkSameTable(t, "rematched table", got, want)
				total := int64(len(want.values))
				if stats.Full || stats.RescoredCells >= total || stats.CopiedCells == 0 {
					t.Fatalf("no incremental savings: %+v over %d cells", stats, total)
				}
				if stats.CopiedCells+stats.RescoredCells != total {
					t.Fatalf("stats do not partition the table: %+v vs %d", stats, total)
				}
				span := rematchSpan(t, tr)
				if span.Cells != stats.RescoredCells {
					t.Fatalf("span cells %d, stats rescored %d", span.Cells, stats.RescoredCells)
				}
				if span.Cells >= total {
					t.Fatalf("span rescored %d of %d cells — not incremental", span.Cells, total)
				}
			})
		}
	}
}

// checkSameTable demands that got equal want, the full match of the same
// pair: both planes, Root, and every cell's full QoM recomputed through
// the cell function. A rematched Result usually has no kernel, so the
// recomputation takes both Results' outcomes from one fresh NameMatcher.
func checkSameTable(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.values, want.values) {
		t.Fatalf("%s: value plane differs from full re-match", name)
	}
	if !reflect.DeepEqual(got.flags, want.flags) {
		t.Fatalf("%s: flag plane differs from full re-match", name)
	}
	if got.Root != want.Root {
		t.Fatalf("%s: root %+v, full root %+v", name, got.Root, want.Root)
	}
	names := lingo.NewNameMatcher(lingo.Default())
	for idx := range want.values {
		g, gok := got.qomAt(idx, names)
		w, wok := want.qomAt(idx, names)
		if !gok || !wok || g != w {
			t.Fatalf("%s: cell %d recomputes to %+v (%v), full re-match %+v (%v)", name, idx, g, gok, w, wok)
		}
	}
}

// rematchSpan extracts the PhaseRematch span from a finished trace.
func rematchSpan(t *testing.T, tr *obs.Trace) obs.Span {
	t.Helper()
	mt := tr.Finish()
	for _, s := range mt.Spans {
		if s.Phase == obs.PhaseRematch {
			return s
		}
	}
	t.Fatal("trace has no rematch span")
	return obs.Span{}
}

// The source side evolves symmetrically: rows instead of columns.
func TestRematchSourceEquivalence(t *testing.T) {
	pair := dataset.DCMDPair()
	for _, evo := range evolutions {
		t.Run(evo.name, func(t *testing.T) {
			newSrc := pair.Source.Clone()
			evo.mutate(t, newSrc)

			want := NewMatcher(nil).Tree(newSrc, pair.Target)

			m := NewMatcher(nil)
			prev := m.Tree(pair.Source, pair.Target)
			got, stats := m.RematchSource(prev, newSrc)

			checkSameTable(t, "rematched table", got, want)
			if stats.Full || stats.RescoredCells >= int64(len(want.values)) || stats.CopiedCells == 0 {
				t.Fatalf("no incremental savings: %+v", stats)
			}
		})
	}
}

// A released (or otherwise unusable) previous result degrades to a full
// fill that still matches the from-scratch table.
func TestRematchReleasedPrevFallsBack(t *testing.T) {
	pair := dataset.POPair()
	newTgt := pair.Target.Clone()
	newTgt.Nodes()[2].Label = "Altered"

	m := NewMatcher(nil)
	prev := m.Tree(pair.Source, pair.Target)
	prev.Release()
	got, stats := m.RematchTarget(prev, newTgt)
	if !stats.Full || stats.CopiedCells != 0 {
		t.Fatalf("released prev should force a full re-match, got %+v", stats)
	}
	want := NewMatcher(nil).Tree(pair.Source, newTgt)
	checkSameTable(t, "fallback table", got, want)
}

// Chained evolution: rematch output seeds the next rematch, staying equal
// to a full match at every step.
func TestRematchChain(t *testing.T) {
	pair := dataset.DCMDPair()
	m := NewMatcher(nil)
	prev := m.Tree(pair.Source, pair.Target)
	tgt := pair.Target
	for step, evo := range evolutions {
		next := tgt.Clone()
		evo.mutate(t, next)
		got, stats := m.RematchTarget(prev, next)
		want := NewMatcher(nil).Tree(pair.Source, next)
		checkSameTable(t, fmt.Sprintf("step %d (%s): chained rematch", step, evo.name), got, want)
		if stats.Full {
			t.Fatalf("step %d (%s): chain degraded to full re-match", step, evo.name)
		}
		prev, tgt = got, next
	}
}

// Park returns the kernel and keeps the planes, trimmed to the table's own
// cells when the fill drew a larger pooled slab; the parked table still
// selects and seeds a re-match, and its cell accessors report not-found.
func TestParkKeepsOnlyTheTable(t *testing.T) {
	pair := dataset.POPair()
	m := NewMatcher(nil)
	m.Tree(wide("L", 80), wide("R", 80)).Release()
	r := m.Tree(pair.Source, pair.Target)
	pooled := cap(r.values) > len(r.values)
	values, flags := append([]float64(nil), r.values...), append([]uint8(nil), r.flags...)
	h := NewHybrid(nil)
	want := h.Select(r)

	r.Park()
	if r.kern != nil || r.kbuf != nil {
		t.Fatal("parked table kept its kernel")
	}
	if cap(r.values) != len(r.values) || cap(r.flags) != len(r.flags) {
		t.Fatalf("parked planes hold %d and %d cells of capacity for %d cells (pooled slab: %v)",
			cap(r.values), cap(r.flags), len(r.values), pooled)
	}
	if !reflect.DeepEqual(r.values, values) || !reflect.DeepEqual(r.flags, flags) {
		t.Fatal("parking changed the planes")
	}
	if got := h.Select(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("parked table selects %v, want %v", got, want)
	}
	if _, ok := r.Pair(pair.Source, pair.Target); ok || r.Pairs() != nil || r.TopPairs(3) != nil {
		t.Fatal("parked table answered a cell accessor without its kernel")
	}

	newTgt := pair.Target.Clone()
	newTgt.Nodes()[2].Label = "Altered"
	got, stats := m.RematchTarget(r, newTgt)
	if stats.Full {
		t.Fatal("parked table did not seed an incremental re-match")
	}
	checkSameTable(t, "rematch from a parked table", got, NewMatcher(nil).Tree(pair.Source, newTgt))
}
