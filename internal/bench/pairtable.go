package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"qmatch/internal/core"
	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

// PairTableRow is one workload of the pair-table fill benchmark: the raw
// table dimensions, the interned vocabulary sizes that bound the linguistic
// work (DESIGN.md §5.1), the best wall-clock fill and full-match times, and
// the allocation cost of one fill. Cells is n·m; LinguisticPairs is
// |Lₛ|·|Lₜ| — the number of label pairs the kernel actually scores. FillMS
// times the pair-table fill alone (Matcher.Tree); TotalMS adds the
// production selection pass (Hybrid.Select) on top, so TotalMS−FillMS is
// what the service pays beyond the table. BestMS mirrors FillMS — it is
// the metric the CI perf regression gate compares against the committed
// baseline, so its name is pinned. Allocs and Bytes count one warm fill (arena buffers pooled), the
// numbers the arena allocator is accountable for.
type PairTableRow struct {
	Workload        string  `json:"workload"`
	SourceNodes     int     `json:"source_nodes"`
	TargetNodes     int     `json:"target_nodes"`
	Cells           int     `json:"cells"`
	SourceLabels    int     `json:"source_labels"`
	TargetLabels    int     `json:"target_labels"`
	LinguisticPairs int     `json:"linguistic_pairs"`
	BestMS          float64 `json:"best_ms"`
	FillMS          float64 `json:"fill_ms"`
	TotalMS         float64 `json:"total_ms"`
	Allocs          int64   `json:"allocs"`
	Bytes           int64   `json:"bytes"`

	Best      time.Duration `json:"-"`
	BestTotal time.Duration `json:"-"`
}

// PairTable measures the full hybrid pair-table fill on every corpus
// workload; each row is the best of reps runs.
func PairTable(reps int) []PairTableRow {
	return PairTableFor(dataset.Pairs(), reps)
}

// PairTableFor measures the given workloads only (e.g. dropping the protein
// pair for a quick pass). Each repetition builds a fresh matcher so the
// measurement always covers cold name-matcher memo caches; the allocation
// columns are measured separately on a warm matcher (second fill), so they
// report the steady-state cost with pooled arena buffers rather than the
// one-time pool warm-up.
func PairTableFor(pairs []dataset.Pair, reps int) []PairTableRow {
	if reps < 1 {
		reps = 1
	}
	rows := make([]PairTableRow, 0, len(pairs))
	for _, p := range pairs {
		src, tgt := p.Source.Nodes(), p.Target.Nodes()
		row := PairTableRow{
			Workload:     p.Name,
			SourceNodes:  len(src),
			TargetNodes:  len(tgt),
			Cells:        len(src) * len(tgt),
			SourceLabels: uniqueLabels(src),
			TargetLabels: uniqueLabels(tgt),
		}
		row.LinguisticPairs = row.SourceLabels * row.TargetLabels
		for i := 0; i < reps; i++ {
			h := core.NewHybrid(nil)
			start := time.Now()
			r := h.Tree(p.Source, p.Target)
			fill := time.Since(start)
			h.Select(r)
			total := time.Since(start)
			r.Release()
			if row.Best == 0 || fill < row.Best {
				row.Best = fill
			}
			if row.BestTotal == 0 || total < row.BestTotal {
				row.BestTotal = total
			}
		}
		row.Allocs, row.Bytes = fillAllocs(p)
		row.BestMS = float64(row.Best) / float64(time.Millisecond)
		row.FillMS = row.BestMS
		row.TotalMS = float64(row.BestTotal) / float64(time.Millisecond)
		rows = append(rows, row)
	}
	return rows
}

// fillAllocs measures the allocations of one warm pair-table fill: the
// matcher has filled (and released) the pair once, so arena buffers come
// from the pool and the name-matcher memo is hot. Counters are monotonic
// totals from runtime.MemStats, unaffected by intervening GC.
func fillAllocs(p dataset.Pair) (allocs, bytes int64) {
	m := core.NewMatcher(nil)
	m.Tree(p.Source, p.Target).Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := m.Tree(p.Source, p.Target)
	runtime.ReadMemStats(&after)
	r.Release()
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

// uniqueLabels counts the distinct labels of a node list — the size of the
// vocabulary the similarity kernel interns.
func uniqueLabels(nodes []*xmltree.Node) int {
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		seen[n.Label] = struct{}{}
	}
	return len(seen)
}

// FormatPairTable renders the rows.
func FormatPairTable(rows []PairTableRow) string {
	var b strings.Builder
	b.WriteString("Extension: pair-table fill (cells vs interned linguistic pairs)\n")
	fmt.Fprintf(&b, "%-14s %7s %7s %9s %10s %10s %10s %9s %12s\n",
		"Workload", "SrcN", "TgtN", "Cells", "LingPairs", "Fill", "Total", "Allocs", "Bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %7d %7d %9d %10d %10s %10s %9d %12d\n",
			r.Workload, r.SourceNodes, r.TargetNodes, r.Cells,
			r.LinguisticPairs, r.Best, r.BestTotal, r.Allocs, r.Bytes)
	}
	return b.String()
}

// gateFloorMS is the smallest baseline best_ms the perf gate holds to its
// tolerance band: sub-25ms fills (PO, Book, DCMD) jitter well past 25% on
// shared CI runners, so gating them would only flake. The protein workload
// — the one the gate exists for — sits an order of magnitude above.
const gateFloorMS = 25.0

// GatePairTable is the CI perf regression gate: it compares measured rows
// against a committed baseline (an earlier WritePairTableJSON artifact) and
// reports every workload whose best_ms regressed by more than tolerance
// (0.25 = fail beyond +25%). Workloads present on only one side are
// skipped — a -fast run gates only the workloads it measured — as are
// workloads whose baseline sits under gateFloorMS, where runner jitter
// swamps the band. A baseline written before a speedup never fails
// (faster is always fine).
func GatePairTable(baseline, current []PairTableRow, tolerance float64) error {
	base := make(map[string]float64, len(baseline))
	for _, r := range baseline {
		base[r.Workload] = r.BestMS
	}
	var regressions []string
	for _, r := range current {
		b, ok := base[r.Workload]
		if !ok || b < gateFloorMS {
			continue
		}
		if r.BestMS > b*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: best_ms %.3f vs baseline %.3f (+%.0f%%, limit +%.0f%%)",
					r.Workload, r.BestMS, b, (r.BestMS/b-1)*100, tolerance*100))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("pair-table perf regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// ReadPairTableJSON reads a WritePairTableJSON artifact — the baseline side
// of GatePairTable.
func ReadPairTableJSON(r io.Reader) ([]PairTableRow, error) {
	var rows []PairTableRow
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, fmt.Errorf("pair-table baseline: %w", err)
	}
	return rows, nil
}

// WritePairTableJSON writes the rows as indented JSON — the machine-readable
// artifact (BENCH_pairtable.json) the CI benchmark smoke step emits and the
// perf regression gate compares against. The output is deterministic apart
// from the timings themselves: fixed key order, no timestamps or
// environment capture.
func WritePairTableJSON(w io.Writer, rows []PairTableRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
