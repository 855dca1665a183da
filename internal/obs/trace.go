package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names one stage of the match pipeline (paper Fig. 3): schema
// parsing, vocabulary interning into the similarity kernel, the QoM
// pair-table fill, and correspondence selection. The registry/corpus-search
// pipeline adds two stages of its own: artifact compilation (parse→intern
// folded into a reusable CompiledSchema) and the vocabulary-overlap
// prefilter that selects top-K candidates before any full QoM table runs.
//
// The request-correlation layer adds structural phases that exist only as
// parents in a hierarchical trace: "request" (one HTTP request end to end),
// "queue" (the wait for an admission slot), "match" (one engine match,
// parent of the pipeline phases) and "level" (one height level of a
// parallel pair-table fill, child of "pairtable"). The async job subsystem
// adds "job" (one submitted MatchAll job end to end) and "shard" (one
// shard of the job's pair grid, child of "job" — a shard that failed or
// was cut short by the job's end is marked partial).
type Phase string

const (
	PhaseParse     Phase = "parse"
	PhaseIntern    Phase = "intern"
	PhasePairTable Phase = "pairtable"
	PhaseSelect    Phase = "select"
	PhaseCompile   Phase = "compile"
	PhasePrefilter Phase = "prefilter"
	PhaseRematch   Phase = "rematch"
	PhaseRequest   Phase = "request"
	PhaseQueue     Phase = "queue"
	PhaseMatch     Phase = "match"
	PhaseLevel     Phase = "level"
	PhaseJob       Phase = "job"
	PhaseShard     Phase = "shard"
)

// Span is one finished phase of a match trace. ID and ParentID encode the
// span hierarchy: IDs are assigned in start order from 1, ParentID 0 marks
// a root span. Counts are phase-specific: the intern span counts interned
// vocabulary entries and scored kernel cells, the pair-table span counts
// tree nodes and filled table cells, the select span counts candidate
// pairs (Cells) and accepted correspondences (Selected), and a level span
// carries its 1-based fill level (1 = the leaf level). Partial marks a
// span closed before its phase completed — a cancelled MatchAll reports
// the work done so far instead of leaking an unfinished span.
type Span struct {
	Phase      Phase `json:"phase"`
	ID         int64 `json:"id,omitempty"`
	ParentID   int64 `json:"parentId,omitempty"`
	StartNs    int64 `json:"startNs"`
	DurationNs int64 `json:"durationNs"`
	SrcNodes   int   `json:"srcNodes,omitempty"`
	TgtNodes   int   `json:"tgtNodes,omitempty"`
	Cells      int64 `json:"cells,omitempty"`
	Workers    int   `json:"workers,omitempty"`
	Selected   int   `json:"selected,omitempty"`
	Level      int   `json:"level,omitempty"`
	Partial    bool  `json:"partial,omitempty"`
}

// Trace collects the phase spans of one match or one request. A nil *Trace
// is the disabled instrument: StartSpan returns nil and every span method
// no-ops, so instrumented code pays one nil-check and zero allocations when
// tracing is off. Span begin/end may happen on any goroutine.
//
// Spans form a hierarchy: StartChild opens a span under an explicit parent,
// StartSpan opens one under the trace's current default parent (SetParent),
// which instrumenting layers use to adopt the spans of layers below them —
// the engine parents the matcher's pipeline spans under its "match" span
// without the matcher knowing.
type Trace struct {
	mu       sync.Mutex
	id       string // correlation (trace) ID, "" when uncorrelated
	start    time.Time
	spans    []Span
	open     map[*ActiveSpan]struct{}
	finished bool
	nextID   int64
	parent   *ActiveSpan // default parent for StartSpan
	cell     *PhaseCell  // live current-phase mirror, may be nil
}

// NewTrace starts an empty trace; its clock starts now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), open: make(map[*ActiveSpan]struct{})}
}

// SetID attaches a correlation (trace) ID — typically the W3C trace-id of
// the request that triggered this work. No-op on a nil trace.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the correlation ID ("" on a nil or uncorrelated trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// SetPhaseCell mirrors every span start into the cell, giving an observer
// (the qmatchd in-flight request table) a lock-free view of the phase the
// trace is currently in. No-op on a nil trace.
func (t *Trace) SetPhaseCell(c *PhaseCell) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cell = c
	t.mu.Unlock()
}

// SetParent sets the default parent of subsequent StartSpan calls; nil
// restores root-level spans. The engine brackets a matcher run with it so
// the matcher's spans nest under the engine's "match" span. No-op on a nil
// trace.
func (t *Trace) SetParent(s *ActiveSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = s
	t.mu.Unlock()
}

// SinceStartNs returns the nanoseconds elapsed since the trace's clock
// started (0 on a nil trace) — the offset a later trace needs to graft
// this trace's spans onto its own timeline.
func (t *Trace) SinceStartNs() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// StartSpan opens a span for the given phase under the trace's current
// default parent. Returns nil (a no-op handle) on a nil or already-finished
// trace.
func (t *Trace) StartSpan(phase Phase) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := t.parent
	t.mu.Unlock()
	return t.StartChild(parent, phase)
}

// StartChild opens a span for the given phase as a child of parent (nil
// parent opens a root span). Returns nil on a nil or finished trace.
func (t *Trace) StartChild(parent *ActiveSpan, phase Phase) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := &ActiveSpan{t: t, begun: time.Now()}
	s.span.Phase = phase
	s.span.StartNs = s.begun.Sub(t.start).Nanoseconds()
	if parent != nil {
		s.span.ParentID = parent.span.ID
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	s.span.ID = t.nextID
	t.open[s] = struct{}{}
	cell := t.cell
	t.mu.Unlock()
	cell.Set(phase)
	return s
}

// ActiveSpan is an open span. All methods are no-ops on a nil receiver
// and after End.
type ActiveSpan struct {
	t     *Trace
	begun time.Time
	span  Span
}

// ID returns the span's trace-local ID (0 on a nil span) for use as a
// graft point when stitching another trace's spans under this one.
func (s *ActiveSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// Child opens a new span under this one. A nil receiver opens nothing and
// returns nil.
func (s *ActiveSpan) Child(phase Phase) *ActiveSpan {
	if s == nil {
		return nil
	}
	return s.t.StartChild(s, phase)
}

// SetNodes records the phase's input dimensions.
func (s *ActiveSpan) SetNodes(src, tgt int) {
	if s == nil {
		return
	}
	s.span.SrcNodes, s.span.TgtNodes = src, tgt
}

// SetCells records how many table/matrix cells the phase touched.
func (s *ActiveSpan) SetCells(n int64) {
	if s == nil {
		return
	}
	s.span.Cells = n
}

// SetWorkers records the phase's worker-pool parallelism.
func (s *ActiveSpan) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.span.Workers = n
}

// SetSelected records how many correspondences a selection phase kept.
func (s *ActiveSpan) SetSelected(n int) {
	if s == nil {
		return
	}
	s.span.Selected = n
}

// SetLevel records the 1-based pair-table fill level of a level span.
func (s *ActiveSpan) SetLevel(n int) {
	if s == nil {
		return
	}
	s.span.Level = n
}

// MarkPartial flags the span as closed before its phase completed.
func (s *ActiveSpan) MarkPartial() {
	if s == nil {
		return
	}
	s.span.Partial = true
}

// End closes the span and appends it to the trace. Safe to call once; a
// second End (or an End racing Finish) is a no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.closeSpan(s, time.Now())
}

// closeSpan finalizes s if it is still open.
func (t *Trace) closeSpan(s *ActiveSpan, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.open[s]; !ok {
		return
	}
	delete(t.open, s)
	s.span.DurationNs = now.Sub(s.begun).Nanoseconds()
	t.spans = append(t.spans, s.span)
}

// MatchTrace is the finished, serializable trace of one match or request:
// the correlation ID (when one was set), total wall time and the spans,
// ordered by start time. Span ID/ParentID links encode the hierarchy.
type MatchTrace struct {
	TraceID string `json:"traceId,omitempty"`
	TotalNs int64  `json:"totalNs"`
	Spans   []Span `json:"spans"`
}

// Finish closes the trace: any span still open is force-closed with
// Partial set (cancellation must not leak unfinished spans), spans are
// ordered by start time, and the total wall time is fixed. Returns nil on
// a nil trace; calling Finish twice returns the same result.
func (t *Trace) Finish() *MatchTrace {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		for s := range t.open {
			delete(t.open, s)
			s.span.Partial = true
			s.span.DurationNs = now.Sub(s.begun).Nanoseconds()
			t.spans = append(t.spans, s.span)
		}
		sort.SliceStable(t.spans, func(i, j int) bool {
			return t.spans[i].StartNs < t.spans[j].StartNs
		})
		t.finished = true
	}
	mt := &MatchTrace{TraceID: t.id, TotalNs: now.Sub(t.start).Nanoseconds(), Spans: make([]Span, len(t.spans))}
	copy(mt.Spans, t.spans)
	return mt
}

// Graft appends child's spans to mt as descendants of the span with
// parentID (0 grafts them as roots), shifting their timeline by offsetNs
// and remapping their IDs past mt's current maximum so the combined
// hierarchy stays consistent. This is the trace-stitching primitive: a
// service grafts the engine's match trace under its request span, and a
// cluster coordinator will graft per-worker traces under its fan-out spans.
func (mt *MatchTrace) Graft(child *MatchTrace, parentID, offsetNs int64) {
	if mt == nil || child == nil || len(child.Spans) == 0 {
		return
	}
	var base int64
	for _, s := range mt.Spans {
		if s.ID > base {
			base = s.ID
		}
	}
	for _, s := range child.Spans {
		s.ID += base
		if s.ParentID != 0 {
			s.ParentID += base
		} else {
			s.ParentID = parentID
		}
		s.StartNs += offsetNs
		mt.Spans = append(mt.Spans, s)
	}
	if end := offsetNs + child.TotalNs; end > mt.TotalNs {
		mt.TotalNs = end
	}
	sort.SliceStable(mt.Spans, func(i, j int) bool {
		return mt.Spans[i].StartNs < mt.Spans[j].StartNs
	})
}

// WriteJSON streams the trace as a single JSON object.
func (mt *MatchTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mt)
}

// depths resolves each span's depth in the hierarchy (roots at 0; spans
// with a dangling parent ID are treated as roots).
func (mt *MatchTrace) depths() map[int64]int {
	depth := make(map[int64]int, len(mt.Spans))
	parent := make(map[int64]int64, len(mt.Spans))
	for _, s := range mt.Spans {
		parent[s.ID] = s.ParentID
	}
	var resolve func(id int64, hops int) int
	resolve = func(id int64, hops int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		p := parent[id]
		d := 0
		// hops bounds pathological parent cycles in hand-built traces.
		if p != 0 && p != id && hops < len(mt.Spans) {
			if _, known := parent[p]; known {
				d = resolve(p, hops+1) + 1
			}
		}
		depth[id] = d
		return d
	}
	for _, s := range mt.Spans {
		resolve(s.ID, 0)
	}
	return depth
}

// Format renders the human-readable phase breakdown the qmatch -trace flag
// prints: one line per span, indented by hierarchy depth, with duration,
// share of total, and the phase-specific counts.
func (mt *MatchTrace) Format() string {
	var b strings.Builder
	total := time.Duration(mt.TotalNs)
	fmt.Fprintf(&b, "phase breakdown (total %s):\n", total.Round(time.Microsecond))
	depth := mt.depths()
	for _, s := range mt.Spans {
		d := time.Duration(s.DurationNs)
		pct := 0.0
		if mt.TotalNs > 0 {
			pct = 100 * float64(s.DurationNs) / float64(mt.TotalNs)
		}
		indent := strings.Repeat("  ", depth[s.ID])
		fmt.Fprintf(&b, "  %-*s %12s %6.1f%%", 10+len(indent), indent+string(s.Phase), d.Round(time.Microsecond), pct)
		if s.SrcNodes > 0 || s.TgtNodes > 0 {
			fmt.Fprintf(&b, "  src=%d tgt=%d", s.SrcNodes, s.TgtNodes)
		}
		if s.Cells > 0 {
			fmt.Fprintf(&b, " cells=%d", s.Cells)
		}
		if s.Workers > 0 {
			fmt.Fprintf(&b, " workers=%d", s.Workers)
		}
		if s.Level > 0 {
			fmt.Fprintf(&b, " level=%d", s.Level)
		}
		if s.Phase == PhaseSelect {
			fmt.Fprintf(&b, " selected=%d", s.Selected)
		}
		if s.Partial {
			b.WriteString(" (partial)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
