package qmatch

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qmatch/internal/core"
	"qmatch/internal/cupid"
	"qmatch/internal/lingo"
	"qmatch/internal/linguistic"
	"qmatch/internal/match"
	"qmatch/internal/obs"
	"qmatch/internal/structural"
)

// Engine is a reusable, goroutine-safe matching handle. It is compiled
// once from Options — the algorithm choice, weights and thresholds are
// frozen, the thesaurus is resolved a single time and shared read-only
// (Engines without a custom thesaurus share the built-in one; a custom one
// is merged into a private copy), and the linguistic name-similarity
// caches live in a pool that hands each concurrent worker its own warm
// instance. Every method may be called from any number of goroutines
// simultaneously.
//
// Construction is where configuration errors surface: unknown algorithms,
// negative or all-zero weights, out-of-range thresholds and negative
// parallelism are rejected by NewEngine instead of being silently
// normalized at match time.
//
// The package-level Match, QoM, MatchComplex, ExplainTop and Rank
// functions are thin wrappers: option-less calls share one lazily built
// default Engine, and calls with options build a throwaway Engine each.
// Services matching many schema pairs with their own options should build
// one Engine and reuse it, batching with MatchAll where possible, and
// derive per-task variants from it with With.
type Engine struct {
	cfg         config
	weights     core.AxisWeights
	thesaurus   *lingo.Thesaurus
	names       *lingo.MatcherPool
	parallelism int

	// Observability (DESIGN.md §"Observability"). The registry always
	// exists, but per-match collection, tracing and logging are opt-in via
	// WithObserver; with all three off the match path reduces to one
	// boolean check.
	metrics *obs.Registry
	logger  *slog.Logger
	collect bool // per-match metric collection (Observer.Metrics)
	tracing bool // attach MatchTrace to Reports (Observer.Tracing)
	em      engineMetrics
}

// engineMetrics holds the pre-resolved instrument handles of the match
// path, so observed matches never pay a registry map lookup.
type engineMetrics struct {
	matches   *obs.Counter
	cancelled *obs.Counter
	cells     *obs.Counter
	duration  *obs.Histogram
	inflight  *obs.Gauge
	workers   *obs.Gauge
	phaseNs   map[obs.Phase]*obs.Counter
	phaseDur  map[obs.Phase]*obs.Histogram
}

// NewEngine compiles the options into a reusable, goroutine-safe Engine.
// It returns an error for option sets the matchers cannot interpret:
// an unknown algorithm, weights with a negative component or all
// components zero, thresholds outside [0,1], or negative parallelism.
func NewEngine(opts ...Option) (*Engine, error) {
	return newEngine(*newConfig(), nil, opts)
}

// With returns an Engine configured like e with opts applied on top, in
// the manner of slog.Logger.With. The new Engine shares e's thesaurus,
// its name-matcher pool and its metrics registry: deriving one merges
// nothing, its first match starts warm, and its observed matches
// count in e's metrics. Options that would change the thesaurus
// (WithThesaurus, WithoutBuiltinThesaurus) are rejected; any other
// invalid option fails exactly as it fails NewEngine.
func (e *Engine) With(opts ...Option) (*Engine, error) {
	return newEngine(e.cfg, e, opts)
}

// newEngine is the one Engine constructor: it applies opts over cfg,
// validates the result and compiles it. A nil base resolves the thesaurus
// (config.thesaurus) and starts an empty name-matcher pool and metrics
// registry; otherwise the Engine shares base's.
func newEngine(cfg config, base *Engine, opts []Option) (*Engine, error) {
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		weights:     cfg.axisWeights(),
		parallelism: cfg.parallelism,
		logger:      cfg.logger,
		collect:     cfg.obsMetrics,
		tracing:     cfg.obsTracing,
	}
	if base == nil {
		e.thesaurus = cfg.thesaurus()
		e.names = lingo.NewMatcherPool(e.thesaurus)
		e.metrics = obs.NewRegistry()
	} else {
		if cfg.custom != base.cfg.custom || cfg.noBuiltin != base.cfg.noBuiltin {
			return nil, errors.New("qmatch: With cannot change the thesaurus (build a new Engine with NewEngine)")
		}
		e.thesaurus, e.names, e.metrics = base.thesaurus, base.names, base.metrics
	}
	if e.parallelism == 0 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	if e.collect {
		// Every pipeline phase gets a wall-time counter (aggregate share
		// of time per phase) and a duration histogram (per-phase latency
		// distribution — the counter's average hides tail behavior).
		// Structural phases ("level" fill strata, the service-side
		// "request"/"queue" spans) are deliberately absent: their time is
		// contained in a metered phase, and folding them in would double
		// count.
		metered := []obs.Phase{
			obs.PhaseMatch, obs.PhaseParse, obs.PhaseIntern, obs.PhasePairTable,
			obs.PhaseSelect, obs.PhaseCompile, obs.PhasePrefilter, obs.PhaseRematch,
		}
		e.em = engineMetrics{
			matches:   e.metrics.Counter(MetricMatches),
			cancelled: e.metrics.Counter(MetricCancelled),
			cells:     e.metrics.Counter(MetricCells),
			duration:  e.metrics.Histogram(MetricDuration, nil),
			inflight:  e.metrics.Gauge(MetricInflight),
			workers:   e.metrics.Gauge(MetricWorkers),
			phaseNs:   make(map[obs.Phase]*obs.Counter, len(metered)),
			phaseDur:  make(map[obs.Phase]*obs.Histogram, len(metered)),
		}
		for _, p := range metered {
			e.em.phaseNs[p] = e.metrics.Counter(phaseMetric(p))
			e.em.phaseDur[p] = e.metrics.Histogram(phaseDurationMetric(p), nil)
		}
	}
	return e, nil
}

// mustEngine backs the package-level convenience functions, which keep
// their historical panic-free-on-valid-input signatures: invalid options
// panic with the same error NewEngine would return.
func mustEngine(opts []Option) *Engine {
	e, err := NewEngine(opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// defaultEngine is the lazily-built default-configuration Engine behind
// the package-level Match/QoM/MatchComplex/ExplainTop/Rank functions. It
// is constructed on first use and shared for the process lifetime, so
// repeated option-less calls reuse one warm thesaurus and matcher pool
// instead of rebuilding them per call.
var defaultEngine = sync.OnceValue(func() *Engine {
	return mustEngine(nil)
})

// engineFor resolves the Engine for a package-level call: the shared
// default Engine when no options are given (the common case), or a
// throwaway Engine compiled from the options otherwise — per-call options
// must not leak configuration into other callers.
func engineFor(opts []Option) *Engine {
	if len(opts) == 0 {
		return defaultEngine()
	}
	return mustEngine(opts)
}

// Algorithm returns the frozen algorithm choice.
func (e *Engine) Algorithm() Algorithm { return e.cfg.alg }

// Parallelism returns the effective worker bound (the WithParallelism
// value, or the GOMAXPROCS-derived default).
func (e *Engine) Parallelism() int { return e.parallelism }

// algorithm builds one single-goroutine matcher instance over the shared
// thesaurus, borrowing a warm NameMatcher from the pool, and wires it for
// one call: inner bounds the hybrid pair-table worker pool, and ctx's Done
// channel aborts in-flight fills. For the hybrid algorithm h is the same
// instance as alg, typed — the handle the match path fills, selects and
// traces through, and on which callers install vocabularies and shared
// kernels (core.KernelView); the baselines return a nil h. The release
// function gives the NameMatcher back; the matcher must not be used after
// release.
func (e *Engine) algorithm(ctx context.Context, inner int) (alg match.Algorithm, h *core.Hybrid, release func()) {
	switch e.cfg.alg {
	case Linguistic:
		m := linguistic.New(e.thesaurus)
		m.Names = e.names.Get()
		if e.cfg.selectionThreshold != nil {
			m.SelectionThreshold = *e.cfg.selectionThreshold
		}
		return m, nil, func() { e.names.Put(m.Names) }
	case Structural:
		m := structural.New()
		if e.cfg.selectionThreshold != nil {
			m.SelectionThreshold = *e.cfg.selectionThreshold
		}
		return m, nil, func() {}
	case Cupid:
		m := cupid.New(e.thesaurus)
		m.Names = e.names.Get()
		if e.cfg.selectionThreshold != nil {
			m.SelectionThreshold = *e.cfg.selectionThreshold
		}
		return m, nil, func() { e.names.Put(m.Names) }
	default:
		h, release := e.hybrid(inner)
		h.Done = ctx.Done()
		return h, h, release
	}
}

// hybrid builds one single-goroutine hybrid matcher with the engine's
// frozen tuning and a pooled NameMatcher.
func (e *Engine) hybrid(inner int) (*core.Hybrid, func()) {
	h := core.NewHybrid(e.thesaurus)
	h.Matcher.Names = e.names.Get()
	h.Matcher.Weights = e.weights
	h.Matcher.Parallelism = inner
	if e.cfg.childThreshold != nil {
		h.Threshold = *e.cfg.childThreshold
	}
	if e.cfg.selectionThreshold != nil {
		h.SelectionThreshold = *e.cfg.selectionThreshold
	}
	return h, func() { e.names.Put(h.Matcher.Names) }
}

// reportFrom runs one matcher over one schema pair and assembles the
// public Report: the correspondences in match.Select's order (descending
// score, then source and target path) and the root tree QoM. The hybrid
// (h, the same instance as alg) reads both from one pair table — table
// when Rematch computed it, a fresh fill otherwise — and hands that table
// back for the caller to release or park as rematch state. The baselines
// compute each output in its own call and return a nil table.
func reportFrom(alg match.Algorithm, h *core.Hybrid, table *core.Result, src, tgt *Schema) (*Report, *core.Result) {
	var cs []match.Correspondence
	var treeQoM float64
	if h != nil {
		if table == nil {
			table = h.Tree(src.root, tgt.root)
		}
		cs, treeQoM = h.Select(table), table.Root.Value
	} else {
		cs, treeQoM = alg.Match(src.root, tgt.root), alg.TreeScore(src.root, tgt.root)
	}
	out := make([]Correspondence, len(cs))
	for i, c := range cs {
		out[i] = Correspondence{Source: c.Source, Target: c.Target, Score: c.Score}
	}
	return &Report{Algorithm: alg.Name(), Correspondences: out, TreeQoM: treeQoM}, table
}

// Match matches one schema pair with the engine's frozen configuration.
// It is safe to call concurrently; a single large match additionally
// parallelizes its QoM pair-table computation up to the engine's
// parallelism (hybrid algorithm only).
func (e *Engine) Match(src, tgt *Schema) *Report {
	report, _ := e.match(context.Background(), src, tgt, nil, nil)
	return report
}

// match is the one single-pair path: Match, MatchContext, MatchCompiled and
// MatchCompiledContext all run through it. ctx's Done channel aborts the
// pair-table fill; on cancellation the partial report comes back with
// ctx.Err(). csrc and ctgt are the compiled forms of src and tgt on the
// compiled path (nil on the parse path): the match reads their
// vocabularies, and on a WithRematchState Engine a complete match keeps
// its pair table on the report.
func (e *Engine) match(ctx context.Context, src, tgt *Schema, csrc, ctgt *CompiledSchema) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	alg, h, release := e.algorithm(ctx, e.parallelism)
	defer release()
	if h != nil && csrc != nil {
		h.View = core.KernelView{Src: csrc.art.Interned, Tgt: ctgt.art.Interned}
	}
	report, table := e.run(ctx, alg, h, nil, src, tgt)
	err := ctx.Err()
	if err != nil {
		csrc = nil // a partial table seeds no rematch
	}
	e.settle(report, table, csrc, ctgt)
	return report, err
}

// observing reports whether any instrumentation is enabled; when false the
// match path is the uninstrumented reportFrom call.
func (e *Engine) observing() bool {
	return e.collect || e.tracing || e.logger != nil
}

// run executes one match through the engine's instrumentation. With no
// observer configured it reduces to reportFrom — one boolean check, zero
// extra allocations. ctx carries correlation only (trace/request IDs, the
// phase cell and trace sink of qmatchd's debug plane); cancellation was
// wired into the matcher when algorithm borrowed it. h, table and the
// returned table are reportFrom's.
func (e *Engine) run(ctx context.Context, alg match.Algorithm, h *core.Hybrid, table *core.Result, src, tgt *Schema) (*Report, *core.Result) {
	if !e.observing() {
		return reportFrom(alg, h, table, src, tgt)
	}
	return e.runObserved(ctx, alg, h, table, src, tgt)
}

// runObserved is the instrumented match path: a phase trace is recorded
// whenever tracing or metrics are on (per-phase wall-time counters need
// the spans), attached to the Report when tracing is on, folded into the
// registry when metrics are on, and summarized to the logger when one is
// configured. The trace is hierarchical: a root "match" span adopts the
// matcher's pipeline spans (intern → pairtable with per-level children →
// select). A context correlated by qmatchd contributes the trace ID
// stamped on the trace and every log line, the phase cell mirroring the
// current phase into /debug/requests, and the trace sink that hands the
// finished trace back for /debug/slow stitching.
func (e *Engine) runObserved(ctx context.Context, alg match.Algorithm, h *core.Hybrid, table *core.Result, src, tgt *Schema) (*Report, *core.Result) {
	var tr *obs.Trace
	var matchSpan *obs.ActiveSpan
	if e.tracing || e.collect {
		tr = newTrace(ctx)
		matchSpan = tr.StartSpan(obs.PhaseMatch)
		matchSpan.SetNodes(src.Size(), tgt.Size())
		tr.SetParent(matchSpan)
		if h != nil {
			h.Trace = tr
			defer func() { h.Trace = nil }()
		}
	}
	e.em.inflight.Add(1) // nil-safe: no-op without Observer.Metrics
	start := time.Now()
	report, table := reportFrom(alg, h, table, src, tgt)
	elapsed := time.Since(start)
	e.em.inflight.Add(-1)
	matchSpan.End()

	var mt *obs.MatchTrace
	partial := false
	if tr != nil {
		mt = tr.Finish()
		for i := range mt.Spans {
			partial = partial || mt.Spans[i].Partial
		}
		if e.tracing {
			report.Trace = publicMatchTrace(mt)
		}
		if sink := obs.TraceSinkFromContext(ctx); sink != nil {
			sink(mt)
		}
	}
	if e.collect {
		// A match whose fill was cut short by cancellation counts as
		// cancelled, not completed; its phase time is still recorded.
		if partial {
			e.em.cancelled.Inc()
		} else {
			e.em.matches.Inc()
			e.em.duration.Observe(elapsed.Seconds())
			e.em.cells.Add(int64(src.Size()) * int64(tgt.Size()))
		}
		e.observePhases(mt)
	}
	if e.logger != nil {
		level, msg := slog.LevelInfo, "match complete"
		if partial {
			level, msg = slog.LevelWarn, "match cancelled"
		}
		e.logger.LogAttrs(ctx, level, msg,
			slog.String("algorithm", report.Algorithm),
			slog.String("source", src.Name()),
			slog.String("target", tgt.Name()),
			slog.Duration("elapsed", elapsed),
			slog.Int("correspondences", len(report.Correspondences)),
			slog.Float64("treeQoM", report.TreeQoM))
	}
	return report, table
}

// newTrace starts a phase trace correlated by ctx: the trace ID stamped on
// it and the phase cell that mirrors its current phase into qmatchd's
// /debug/requests.
func newTrace(ctx context.Context) *obs.Trace {
	tr := obs.NewTrace()
	if traceID, _ := obs.IDsFromContext(ctx); traceID != "" {
		tr.SetID(traceID)
	}
	tr.SetPhaseCell(obs.PhaseCellFromContext(ctx))
	return tr
}

// observePhases folds a finished trace's spans into the per-phase
// wall-time counters and duration histograms.
func (e *Engine) observePhases(mt *obs.MatchTrace) {
	for i := range mt.Spans {
		// Unmetered structural phases miss both maps; the nil handles
		// no-op.
		e.em.phaseNs[mt.Spans[i].Phase].Add(mt.Spans[i].DurationNs)
		e.em.phaseDur[mt.Spans[i].Phase].Observe(float64(mt.Spans[i].DurationNs) / 1e9)
	}
}

// MatchContext is Match with deadline and cancellation propagation: the
// context's Done channel is wired into the matcher's pair-table fill, so a
// deadline that expires mid-match aborts the fill between levels instead
// of running to completion. On cancellation it returns ctx.Err() together
// with the partial report the aborted match produced — correspondences
// selected from the prefix of the pair table that was filled, and, on an
// Engine built with Observer.Tracing, a MatchTrace whose cut-short spans
// are marked Partial. Callers that only want complete reports must treat a
// non-nil error as "no result"; services can serve the partial trace as a
// timeout diagnostic (cmd/qmatchd does). A nil ctx is
// context.Background(); with a never-cancelled context MatchContext is
// exactly Match.
func (e *Engine) MatchContext(ctx context.Context, src, tgt *Schema) (*Report, error) {
	return e.match(ctx, src, tgt, nil, nil)
}

// QoM computes the hybrid QoM breakdown of the two schema roots.
func (e *Engine) QoM(src, tgt *Schema) QoMBreakdown {
	h, release := e.hybrid(e.parallelism)
	defer release()
	r := h.Tree(src.root, tgt.root)
	q := r.Root
	r.Release()
	return QoMBreakdown{
		Label:      q.Label,
		Properties: q.Properties,
		Level:      q.Level,
		Children:   q.Children,
		Value:      q.Value,
		Class:      q.Class.String(),
	}
}

// MatchComplex runs the 1:n complex-correspondence pass over the elements
// a 1:1 report left unmatched. Pass the Report of a prior Match call so
// already-explained elements are excluded; a nil report searches the whole
// schemas.
func (e *Engine) MatchComplex(src, tgt *Schema, report *Report) []ComplexCorrespondence {
	var matched []match.Correspondence
	if report != nil {
		matched = make([]match.Correspondence, len(report.Correspondences))
		for i, c := range report.Correspondences {
			matched[i] = match.Correspondence{Source: c.Source, Target: c.Target}
		}
	}
	names := e.names.Get()
	defer e.names.Put(names)
	found := match.FindComplex(src.root, tgt.root, matched, match.ComplexConfig{Names: names})
	out := make([]ComplexCorrespondence, len(found))
	for i, c := range found {
		out[i] = ComplexCorrespondence{Source: c.Source, Targets: c.Targets, Score: c.Score}
	}
	return out
}

// ExplainTop returns human-readable derivations of the n best pairs' QoM
// under the hybrid model.
func (e *Engine) ExplainTop(src, tgt *Schema, n int) string {
	h, release := e.hybrid(e.parallelism)
	defer release()
	res := h.Tree(src.root, tgt.root)
	defer res.Release()
	return h.Matcher.ExplainTop(res, n)
}

// MatchAll matches every source schema against every target schema,
// fanning the len(sources)×len(targets) jobs across the engine's worker
// pool. The result is indexed result[i][j] = Match(sources[i],
// targets[j]); reports are identical (bit-for-bit, including scores) to
// sequential Match calls. The context cancels outstanding work: on
// cancellation MatchAll returns ctx.Err() and a nil result. A nil ctx is
// treated as context.Background().
func (e *Engine) MatchAll(ctx context.Context, sources, targets []*Schema) ([][]*Report, error) {
	return e.matchAll(ctx, sources, targets, nil, nil, "matchall",
		slog.Int("sources", len(sources)), slog.Int("targets", len(targets)))
}

// batchBudget bounds a batch's shared kernel: targets join a group while
// its label and property planes hold at most this many entries, about
// 9 MiB at 9 bytes per entry. It is a variable only so that tests can force
// small groups.
var batchBudget int64 = 1 << 20

// matchAll is the one batch path, behind MatchAll and the Rank family.
// Whole pairs are fanned across the engine's workers (core.FanOut), and
// each pair runs through the same instrumented path as a single Match. For
// the hybrid algorithm the targets are split, in call order, into groups
// whose kernel fits batchBudget: each group's kernel is filled once, over
// the union of the sources' vocabularies × the union of the group's, and
// every pair of the group reads it through its two schemas' views. A
// target over the budget alone fills its own kernels, as Match does. sv
// and tv are the sources' and targets' vocabularies on the compiled path;
// nil interns each schema once per call. op names the batch in its
// start/complete/cancelled log lines, and attrs describe it there.
func (e *Engine) matchAll(ctx context.Context, sources, targets []*Schema, sv, tv []*core.Interned, op string, attrs ...slog.Attr) ([][]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]*Report, len(sources))
	for i := range out {
		out[i] = make([]*Report, len(targets))
	}
	jobs := len(sources) * len(targets)
	if jobs == 0 {
		return out, ctx.Err()
	}
	workers := max(1, min(e.parallelism, jobs))
	// Whole pairs are the unit of parallelism; any worker-pool slack
	// (fewer jobs than workers) goes to the inner pair-table pool.
	inner := max(1, e.parallelism/workers)

	if e.logger != nil {
		e.logger.LogAttrs(ctx, slog.LevelDebug, op+" start", append(attrs,
			slog.Int("jobs", jobs), slog.Int("workers", workers))...)
	}
	e.em.workers.Set(int64(workers)) // nil-safe without Observer.Metrics
	batchStart := time.Now()

	// One matcher per worker number, borrowed on first use. Cancellation
	// reaches into in-flight fills: a fill stops between levels and its
	// trace span closes as partial instead of leaking open.
	type worker struct {
		alg     match.Algorithm
		h       *core.Hybrid
		release func()
	}
	ws := make([]worker, workers)
	borrow := func(w int) *worker {
		if ws[w].alg == nil {
			ws[w].alg, ws[w].h, ws[w].release = e.algorithm(ctx, inner)
		}
		return &ws[w]
	}
	defer func() {
		for _, w := range ws {
			if w.release != nil {
				w.release()
			}
		}
	}()

	var batch *core.Batch
	if h := borrow(0).h; h != nil {
		if sv == nil {
			sv, tv = internAll(sources), internAll(targets)
		}
		batch = core.NewBatch(sv)
		defer batch.Release()
	}
	var completed atomic.Int64
	for lo, hi := 0, len(targets); lo < len(targets) && ctx.Err() == nil; lo = hi {
		shared := false
		if batch != nil {
			if hi, shared = batch.Group(tv, lo, batchBudget); shared && !e.fillShared(ctx, ws[0].h, batch) {
				break // cancelled
			}
		}
		n := hi - lo
		core.FanOut(workers, len(sources)*n, func(w, c int) bool {
			if ctx.Err() != nil {
				return false
			}
			i, j := c/n, lo+c%n
			wk := borrow(w)
			if wk.h != nil {
				wk.h.View = core.KernelView{Src: sv[i], Tgt: tv[j]}
				if shared {
					wk.h.View = batch.View(i, j)
				}
			}
			rep, table := e.run(ctx, wk.alg, wk.h, nil, sources[i], targets[j])
			table.Release() // nil for the baselines
			out[i][j] = rep
			completed.Add(1)
			return true
		})
	}
	if err := ctx.Err(); err != nil {
		e.em.cancelled.Add(int64(jobs) - completed.Load())
		if e.logger != nil {
			e.logger.LogAttrs(context.Background(), slog.LevelWarn, op+" cancelled", append(attrs,
				slog.Int("jobs", jobs), slog.Int64("completed", completed.Load()),
				slog.Duration("elapsed", time.Since(batchStart)))...)
		}
		return nil, err
	}
	if e.logger != nil {
		e.logger.LogAttrs(ctx, slog.LevelInfo, op+" complete", append(attrs,
			slog.Int("jobs", jobs), slog.Int("workers", workers),
			slog.Duration("elapsed", time.Since(batchStart)))...)
	}
	return out, nil
}

// internAll interns each schema's vocabulary, once per batch call.
func internAll(schemas []*Schema) []*core.Interned {
	out := make([]*core.Interned, len(schemas))
	for i, s := range schemas {
		out[i] = core.Intern(s.root.Nodes())
	}
	return out
}

// fillShared fills the current group's kernel through h's name matcher
// over the engine's workers, and reports false when ctx cut it short.
// Observed, the fill is one intern span in its own trace, which goes to
// ctx's trace sink before any cell's trace and is folded once into the
// intern phase metrics.
func (e *Engine) fillShared(ctx context.Context, h *core.Hybrid, b *core.Batch) bool {
	if !e.tracing && !e.collect {
		return b.Fill(h.Matcher, e.parallelism)
	}
	h.Trace = newTrace(ctx)
	ok := b.Fill(h.Matcher, e.parallelism)
	mt := h.Trace.Finish()
	h.Trace = nil
	if sink := obs.TraceSinkFromContext(ctx); sink != nil {
		sink(mt)
	}
	if e.collect {
		e.observePhases(mt)
	}
	return ok
}

// Rank matches one query schema against every schema of a corpus
// concurrently and returns the corpus sorted by descending overall match
// value — the paper's motivating scenario of locating, among many
// heterogeneous web documents, those whose schema best matches a query
// schema (§1).
func (e *Engine) Rank(query *Schema, corpus []*Schema) []Ranked {
	out, _ := e.RankContext(context.Background(), query, corpus)
	return out
}

// RankContext is Rank with deadline and cancellation propagation: the
// context's Done channel is wired into every worker's pair-table fill, and
// a cancelled ranking returns ctx.Err() with a nil result (a partially
// ranked corpus has no meaningful order). A nil ctx is
// context.Background(), under which RankContext is exactly Rank.
func (e *Engine) RankContext(ctx context.Context, query *Schema, corpus []*Schema) ([]Ranked, error) {
	rows, err := e.matchAll(ctx, []*Schema{query}, corpus, nil, nil, "rank",
		slog.String("query", query.Name()), slog.Int("corpus", len(corpus)))
	if err != nil {
		return nil, err
	}
	return ranked(rows[0], corpus, nil), nil
}

// ranked turns one query's reports against a corpus into the ranking:
// descending tree QoM, ties by corpus position. index maps report
// positions to the caller's corpus indices (nil keeps them); it must be
// ascending, so ties still break by corpus position.
func ranked(reports []*Report, corpus []*Schema, index []int) []Ranked {
	out := make([]Ranked, len(reports))
	for i, rep := range reports {
		out[i] = Ranked{Index: i, Schema: corpus[i], Score: rep.TreeQoM, Correspondences: rep.Correspondences}
		if index != nil {
			out[i].Index = index[i]
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// interface guard: the CUPID matcher stays interchangeable too.
var _ match.Algorithm = (*cupid.Matcher)(nil)
