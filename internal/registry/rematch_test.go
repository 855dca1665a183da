package registry

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

func rematchEngine(t *testing.T) *qmatch.Engine {
	t.Helper()
	e, err := qmatch.NewEngine(qmatch.WithRematchState())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMatchCache(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := rematchEngine(t)
	if err := reg.Put("a", compileT(t, dataset.PO1())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", compileT(t, dataset.PO2())); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rep, cached, err := reg.Match(ctx, eng, "a", "b")
	if err != nil || cached {
		t.Fatalf("first match: cached=%v err=%v", cached, err)
	}
	again, cached, err := reg.Match(ctx, eng, "a", "b")
	if err != nil || !cached || again != rep {
		t.Fatalf("second match should serve the cached report: cached=%v err=%v", cached, err)
	}
	if reg.CachedMatches() != 1 {
		t.Fatalf("cached matches = %d, want 1", reg.CachedMatches())
	}
	if _, _, err := reg.Match(ctx, eng, "a", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown target: %v", err)
	}

	// A plain Put of either side invalidates the cached match.
	if err := reg.Put("b", compileT(t, dataset.PO2())); err != nil {
		t.Fatal(err)
	}
	if reg.CachedMatches() != 0 {
		t.Fatalf("Put left %d cached matches", reg.CachedMatches())
	}
	if _, cached, _ := reg.Match(ctx, eng, "a", "b"); cached {
		t.Fatal("match served from a cache Put should have dropped")
	}
	if err := reg.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if reg.CachedMatches() != 0 {
		t.Fatalf("Delete left %d cached matches", reg.CachedMatches())
	}
}

// The cache holds at most maxCachedCells pair-table cells. A match that
// would pass the budget is served but not cached, on Match and on a
// PutRematch refresh alike, and dropping an entry gives its cells back.
func TestMatchCacheCellBudget(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := rematchEngine(t)
	src, tgt := compileT(t, dataset.PO1()), compileT(t, dataset.PO2())
	if err := reg.Put("a", src); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", tgt); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cells := int64(src.Size()) * int64(tgt.Size())

	// Stand-in for other parked tables: the budget is one cell short.
	reg.cells = maxCachedCells - cells + 1
	rep, cached, err := reg.Match(ctx, eng, "a", "b")
	if err != nil || cached || rep == nil {
		t.Fatalf("over-budget match: rep=%v cached=%v err=%v", rep != nil, cached, err)
	}
	if reg.CachedMatches() != 0 || reg.cells != maxCachedCells-cells+1 {
		t.Fatalf("over-budget match cached: %d matches, %d cells", reg.CachedMatches(), reg.cells)
	}

	// Exactly at the budget it is cached.
	reg.cells = maxCachedCells - cells
	if _, _, err := reg.Match(ctx, eng, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if reg.CachedMatches() != 1 || reg.cells != maxCachedCells {
		t.Fatalf("at-budget match: %d matches, %d cells, want 1 and %d", reg.CachedMatches(), reg.cells, int64(maxCachedCells))
	}

	// A refresh that grows the table past the budget is reported but not
	// cached; the stale entry's cells are dropped with it.
	evolved := dataset.PO2()
	evolved.Nodes()[1].Add(xmltree.New("ArchiveFlag", xmltree.Elem("boolean")))
	refreshed, err := reg.PutRematch("b", compileT(t, evolved), eng)
	if err != nil || len(refreshed) != 1 {
		t.Fatalf("refresh: %+v, %v", refreshed, err)
	}
	if reg.CachedMatches() != 0 || reg.cells != maxCachedCells-cells {
		t.Fatalf("over-budget refresh cached: %d matches, %d cells", reg.CachedMatches(), reg.cells)
	}

	// Put and Delete give a cached entry's cells back.
	reg.cells = 0
	if _, _, err := reg.Match(ctx, eng, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if reg.cells == 0 {
		t.Fatal("cached match counted no cells")
	}
	if err := reg.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if reg.CachedMatches() != 0 || reg.cells != 0 {
		t.Fatalf("Delete left %d matches, %d cells", reg.CachedMatches(), reg.cells)
	}
}

// PutRematch refreshes cached matches incrementally: the refreshed report
// equals a from-scratch match of the new pair, with copied cells > 0.
func TestPutRematchRefreshesCache(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := rematchEngine(t)
	if err := reg.Put("dc", compileT(t, dataset.DCMDPair().Source)); err != nil {
		t.Fatal(err)
	}
	oldTgt := dataset.DCMDPair().Target
	if err := reg.Put("md", compileT(t, oldTgt)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := reg.Match(ctx, eng, "dc", "md"); err != nil {
		t.Fatal(err)
	}

	evolved := dataset.DCMDPair().Target
	evolved.Leaves()[1].Label = "EvolvedLeaf"
	newCS := compileT(t, evolved)
	refreshed, err := reg.PutRematch("md", newCS, eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed) != 1 {
		t.Fatalf("refreshed %d matches, want 1: %+v", len(refreshed), refreshed)
	}
	st := refreshed[0]
	if st.Source != "dc" || st.Target != "md" || st.Rematch.Side != "target" {
		t.Fatalf("wrong refresh: %+v", st)
	}
	if st.Rematch.Full || st.Rematch.CopiedCells == 0 || st.Rematch.RescoredCells == 0 {
		t.Fatalf("refresh was not incremental: %+v", st.Rematch)
	}

	rep, cached, err := reg.Match(ctx, eng, "dc", "md")
	if err != nil || !cached {
		t.Fatalf("refreshed match not served from cache: cached=%v err=%v", cached, err)
	}
	want := eng.MatchCompiled(compileT(t, dataset.DCMDPair().Source), newCS)
	if !reflect.DeepEqual(rep.Correspondences, want.Correspondences) || rep.TreeQoM != want.TreeQoM {
		t.Fatal("refreshed cached report differs from a from-scratch match")
	}
}

// A schema matched against itself refreshes both sides of the cached
// report on PutRematch.
func TestPutRematchSelfMatch(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := rematchEngine(t)
	if err := reg.Put("po", compileT(t, dataset.PO1())); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := reg.Match(ctx, eng, "po", "po"); err != nil {
		t.Fatal(err)
	}

	evolved := dataset.PO1()
	evolved.Leaves()[0].Label = "RenamedField"
	newCS := compileT(t, evolved)
	refreshed, err := reg.PutRematch("po", newCS, eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed) != 1 {
		t.Fatalf("refreshed %d matches, want 1", len(refreshed))
	}
	rep, cached, err := reg.Match(ctx, eng, "po", "po")
	if err != nil || !cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	want := eng.MatchCompiled(newCS, newCS)
	if !reflect.DeepEqual(rep.Correspondences, want.Correspondences) || rep.TreeQoM != want.TreeQoM {
		t.Fatal("self-match refresh differs from a from-scratch match")
	}
}

// An engine without rematch state attaches no pair tables; PutRematch then
// drops the stale entries rather than refreshing them.
func TestPutRematchStatelessEngineDrops(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("a", compileT(t, dataset.PO1())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", compileT(t, dataset.PO2())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Match(context.Background(), eng, "a", "b"); err != nil {
		t.Fatal(err)
	}
	refreshed, err := reg.PutRematch("b", compileT(t, dataset.PO2()), eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed) != 0 || reg.CachedMatches() != 0 {
		t.Fatalf("stateless engine should drop, not refresh: %+v, cached=%d",
			refreshed, reg.CachedMatches())
	}
}
