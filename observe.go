package qmatch

import (
	"expvar"
	"io"

	"qmatch/internal/obs"
)

// The Engine's metric names. Every counter/gauge/histogram the match
// pipeline maintains is listed here; DESIGN.md §"Observability" documents
// semantics. Phase wall time is keyed by a phase label:
// qmatch_phase_ns_total{phase="parse|intern|pairtable|select|compile|prefilter"}.
const (
	MetricMatches   = "qmatch_matches_total"
	MetricCancelled = "qmatch_matches_cancelled_total"
	MetricCells     = "qmatch_pairtable_cells_total"
	MetricDuration  = "qmatch_match_duration_seconds"
	MetricInflight  = "qmatch_inflight_matches"
	MetricWorkers   = "qmatch_matchall_workers"
)

// Label-cache metric names that no registry registers, so MetricValue
// reports them absent. The Engine keeps no label cache; these are kept
// only because benchmark/run.go still reads them.
const (
	MetricCacheHits      = "qmatch_label_cache_hits_total"
	MetricCacheMisses    = "qmatch_label_cache_misses_total"
	MetricCacheEvictions = "qmatch_label_cache_evictions_total"
)

// phaseMetric names the per-phase wall-time counter of one pipeline phase.
func phaseMetric(p obs.Phase) string {
	return `qmatch_phase_ns_total{phase="` + string(p) + `"}`
}

// phaseDurationMetric names the per-phase latency histogram
// (qmatch_phase_duration_seconds{phase="..."}): where the wall-time
// counter reports each phase's aggregate share, the histogram keeps the
// distribution, so tail latency per phase is visible.
func phaseDurationMetric(p obs.Phase) string {
	return `qmatch_phase_duration_seconds{phase="` + string(p) + `"}`
}

// TraceSpan is one phase of a match pipeline trace (paper Fig. 3): parse,
// intern (vocabulary interning into the similarity kernel), pairtable (the
// QoM pair-table fill) and select (correspondence selection). Counts are
// phase-specific: the intern span counts interned vocabulary entries
// (SrcNodes/TgtNodes) and scored kernel cells, the pairtable span counts
// tree nodes and filled table cells, the select span counts candidate
// pairs (Cells) and accepted correspondences (Selected). Partial marks a
// phase cut short by cancellation; its counts cover the work done so far.
//
// Spans form a hierarchy: ID numbers spans in start order from 1, and
// ParentID links a child to its enclosing span (0 marks a root). A match
// run is rooted at a "match" span whose children are the pipeline phases;
// the pairtable span additionally has one "level" child per fill stratum
// (Level carries the 1-based stratum index).
type TraceSpan struct {
	Phase      string `json:"phase"`
	ID         int64  `json:"id,omitempty"`
	ParentID   int64  `json:"parentId,omitempty"`
	StartNs    int64  `json:"startNs"`
	DurationNs int64  `json:"durationNs"`
	SrcNodes   int    `json:"srcNodes,omitempty"`
	TgtNodes   int    `json:"tgtNodes,omitempty"`
	Cells      int64  `json:"cells,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Selected   int    `json:"selected,omitempty"`
	Level      int    `json:"level,omitempty"`
	Partial    bool   `json:"partial,omitempty"`
}

// MatchTrace is the structured per-match phase trace an Engine built with
// Observer.Tracing attaches to every Report: total wall time and the phase
// spans in start order. The JSON tags define a stable wire format; the
// qmatch CLI's -trace flag prints Format's human-readable breakdown.
// TraceID carries the W3C trace ID the run was correlated under (empty for
// uncorrelated library calls).
type MatchTrace struct {
	TraceID string      `json:"traceId,omitempty"`
	TotalNs int64       `json:"totalNs"`
	Spans   []TraceSpan `json:"spans"`
}

// WriteJSON streams the trace as one indented JSON object.
func (t *MatchTrace) WriteJSON(w io.Writer) error {
	return t.inner().WriteJSON(w)
}

// Format renders the human-readable phase breakdown: one line per span
// with duration, share of total wall time, and phase-specific counts.
func (t *MatchTrace) Format() string {
	return t.inner().Format()
}

// WriteTraceEvents writes the trace in the Chrome trace-event JSON array
// format (loadable in Perfetto or chrome://tracing): one complete event per
// span, nested by time containment, with phase counts as event args. The
// qmatch CLI's -trace-out flag and qmatchd's /v1/match?trace=1 use this.
func (t *MatchTrace) WriteTraceEvents(w io.Writer) error {
	return t.inner().WriteTraceEvents(w)
}

// inner converts back to the internal representation the formatters use.
func (t *MatchTrace) inner() *obs.MatchTrace {
	mt := &obs.MatchTrace{TraceID: t.TraceID, TotalNs: t.TotalNs, Spans: make([]obs.Span, len(t.Spans))}
	for i, s := range t.Spans {
		mt.Spans[i] = obs.Span{
			Phase: obs.Phase(s.Phase), ID: s.ID, ParentID: s.ParentID,
			StartNs: s.StartNs, DurationNs: s.DurationNs,
			SrcNodes: s.SrcNodes, TgtNodes: s.TgtNodes, Cells: s.Cells,
			Workers: s.Workers, Selected: s.Selected, Level: s.Level, Partial: s.Partial,
		}
	}
	return mt
}

// publicMatchTrace mirrors a finished internal trace into the wire type.
func publicMatchTrace(mt *obs.MatchTrace) *MatchTrace {
	if mt == nil {
		return nil
	}
	t := &MatchTrace{TraceID: mt.TraceID, TotalNs: mt.TotalNs, Spans: make([]TraceSpan, len(mt.Spans))}
	for i, s := range mt.Spans {
		t.Spans[i] = TraceSpan{
			Phase: string(s.Phase), ID: s.ID, ParentID: s.ParentID,
			StartNs: s.StartNs, DurationNs: s.DurationNs,
			SrcNodes: s.SrcNodes, TgtNodes: s.TgtNodes, Cells: s.Cells,
			Workers: s.Workers, Selected: s.Selected, Level: s.Level, Partial: s.Partial,
		}
	}
	return t
}

// WriteMetrics writes the Engine's metrics registry in the Prometheus text
// exposition format — counters and gauges as single samples, the duration
// histogram as cumulative _bucket/_sum/_count series. Only an Engine
// built with Observer.Metrics registers metrics; any other writes nothing.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.metrics.WritePrometheus(w)
}

// WriteMetricsJSON writes a point-in-time JSON snapshot of every metric —
// the machine-readable artifact qbench -metrics emits.
func (e *Engine) WriteMetricsJSON(w io.Writer) error {
	return e.metrics.WriteJSON(w)
}

// PublishExpvar exposes the Engine's metrics registry on the process
// /debug/vars page under the given name, as one JSON object. Idempotent:
// if the name is already taken, it does nothing (expvar registrations are
// process-global and permanent, so prefer one name per long-lived Engine).
func (e *Engine) PublishExpvar(name string) {
	e.metrics.Publish(name)
}

// MetricValue returns the current value of a counter or gauge by metric
// name (see the Metric constants), and whether that metric exists.
func (e *Engine) MetricValue(name string) (int64, bool) {
	return e.metrics.Value(name)
}

// interface guard: the registry stays an expvar.Var.
var _ expvar.Var = (*obs.Registry)(nil)
