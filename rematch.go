package qmatch

import (
	"context"
	"errors"
	"time"

	"qmatch/internal/core"
	"qmatch/internal/obs"
)

// Incremental delta re-match: the registry flow where one side of a
// previously matched pair evolves (a schema PUT on an existing id) and the
// new pair must be matched again. A pair-table cell depends only on the
// two subtrees below it, so the columns (or rows) of unchanged subtrees
// are copied from the previous table and only changed nodes are rescored —
// with a result equal to a full re-match (see internal/core/rematch.go for
// the precise invariant and the equivalence suite pinning it).

// RematchStats reports how much work an incremental re-match saved.
type RematchStats struct {
	// Side is the evolved side: "source" or "target".
	Side string `json:"side"`
	// CopiedCells and RescoredCells partition the new pair table: copied
	// cells were taken verbatim from the previous match.
	CopiedCells   int64 `json:"copiedCells"`
	RescoredCells int64 `json:"rescoredCells"`
	// CleanNodes and DirtyNodes partition the evolved side's elements.
	CleanNodes int `json:"cleanNodes"`
	DirtyNodes int `json:"dirtyNodes"`
	// Full marks a degraded full re-match (no reusable previous table).
	Full bool `json:"full,omitempty"`
}

// rematchState is the retained pair table a WithRematchState Engine
// attaches to compiled-path Reports — the seed of the next Rematch call.
// engine is the Engine that filled the table: its cells are scored under
// that Engine's weights, thresholds and thesaurus, so no other Engine may
// copy them.
type rematchState struct {
	engine   *Engine
	result   *core.Result
	src, tgt *CompiledSchema
}

// WithRematchState makes the Engine's compiled-path matches (MatchCompiled
// and Rematch itself) retain their pair table on the returned Report, so a
// later Engine.Rematch against an evolved schema version can reuse it.
// The retained table pins about 9 bytes per (source, target) element pair
// for the Report's lifetime — opt in only where re-matching is expected
// (the registry's schema store does).
func WithRematchState() Option {
	return func(c *config) { c.rematchState = true }
}

// settle ends the life of the pair table a hybrid match filled and
// selected from. On an Engine built WithRematchState it parks the table on
// the Report as the seed of the next Rematch, provided src and tgt name
// the compiled sides; callers pass nil for them on the parse path and
// after a cancelled match, whose table is partial. Parking keeps the
// table's planes and returns its kernel to the arena pool. Every other
// table goes back to the pool whole; table is nil for the baselines.
func (e *Engine) settle(rep *Report, table *core.Result, src, tgt *CompiledSchema) {
	if table != nil && src != nil && e.cfg.rematchState {
		table.Park()
		rep.state = &rematchState{engine: e, result: table, src: src, tgt: tgt}
		return
	}
	table.Release()
}

// Rematch matches prev's schema pair with one side replaced by an evolved
// version: old must be one side of the match that produced prev, and new
// its successor. The report equals MatchCompiled over the new pair —
// correspondences, TreeQoM, everything — but unchanged regions of the
// evolved schema are copied from prev's retained pair table instead of
// rescored; Report.Rematch breaks down the savings. prev must come from a
// compiled-path match on an Engine built WithRematchState (Rematch's own
// reports carry state too, so evolution chains keep rematching
// incrementally), and from this Engine: another Engine's table is scored
// under that Engine's configuration, so Rematch refuses it. prev remains
// valid afterwards.
func (e *Engine) Rematch(prev *Report, old, new *CompiledSchema) (*Report, error) {
	if old == nil || new == nil {
		return nil, errors.New("qmatch: rematch: nil schema")
	}
	if prev == nil || prev.state == nil {
		return nil, errors.New("qmatch: rematch: previous report carries no pair-table state (match on an Engine built WithRematchState)")
	}
	st := prev.state
	if st.engine != e {
		return nil, errors.New("qmatch: rematch: previous report was matched on another Engine")
	}
	srcCS, tgtCS := st.src, st.tgt
	target := false
	switch old.art.Root {
	case st.tgt.art.Root:
		target, tgtCS = true, new
	case st.src.art.Root:
		srcCS = new
	default:
		return nil, errors.New("qmatch: rematch: old schema is not a side of the previous match")
	}

	h, release := e.hybrid(e.parallelism)
	defer release()
	h.View = core.KernelView{Src: srcCS.art.Interned, Tgt: tgtCS.art.Interned}
	start := time.Now()
	var r *core.Result
	var stats core.RematchStats
	if target {
		r, stats = h.Matcher.RematchTarget(st.result, new.art.Root)
	} else {
		r, stats = h.Matcher.RematchSource(st.result, new.art.Root)
	}
	if e.collect {
		e.em.phaseNs[obs.PhaseRematch].Add(time.Since(start).Nanoseconds())
	}
	rep, table := e.run(context.Background(), h, h, r, srcCS.schema, tgtCS.schema)
	side := "source"
	if target {
		side = "target"
	}
	rep.Rematch = &RematchStats{
		Side:          side,
		CopiedCells:   stats.CopiedCells,
		RescoredCells: stats.RescoredCells,
		CleanNodes:    stats.CleanNodes,
		DirtyNodes:    stats.DirtyNodes,
		Full:          stats.Full,
	}
	e.settle(rep, table, srcCS, tgtCS)
	return rep, nil
}
