// Command qmatch-bench is the repository's end-to-end benchmark. It starts
// qmatchd in-process on a loopback port, drives it with a closed loop of
// two clients over one of four traffic workloads generated from a seed,
// checks every response against the library's own output, and prints each
// metric as
//
//	<workload> <metric> <value> <unit> (n=<samples>)
//
// followed by one JSON summary line. Run it from the repository root with
//
//	bash benchmark/run.sh --workload match-small --seed 1 --seconds 20 --trace 0
//
// Flags:
//
//	-workload NAME   match-small, match-large, registry-search,
//	                 registry-evolve, or all (default all)
//	-seed N          input seed (default 1)
//	-seconds N       timed window per run (default 20)
//	-trace 0|1       1 adds the traced replay and prints the per-layer
//	                 metrics; the JSON line then carries those instead of
//	                 the end-to-end ones
//	-trace-out FILE  write the replay's spans as Chrome trace events
//	                 (loadable in Perfetto); implies -trace 1
//	-repeat N        run each workload N times and print every metric's
//	                 median and min/max spread against its bound
//	-json FILE       also write the JSON summary to FILE
//
// See benchmark/README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"qmatch/internal/obs"
)

// defaultSeconds is the timed window of one run, BENCHMARK.json's
// run_seconds. On a shared 2-vCPU machine shorter windows spread past the
// bounds below.
const defaultSeconds = 20

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of qmatchd sees, measured with tracing
// off over the timed window; every workload reports all of them.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the layer metrics every workload reports in a traced run.
// The six timings are per-op means that add up to serve.request_ms.
var perLayer = []metricDef{
	{"serve.request_ms", "ms", "lower", 0},
	{"serve.decode_ms", "ms", "lower", 0},
	{"qmatch.parse_ms", "ms", "lower", 0},
	{"qmatch.work_ms", "ms", "lower", 0},
	{"qmatch.encode_ms", "ms", "lower", 0},
	{"serve.unattributed_ms", "ms", "lower", 0},
	{"lingo.cache_hit_ratio", "ratio", "higher", 0},
	{"lingo.evictions_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"serve.engine_builds", "count", "lower", 0},
}

// measure is one measured metric value.
type measure struct {
	name, unit string
	value      float64
	n          int
	// sufficient is false for a percentile with fewer than ten samples
	// beyond it.
	sufficient bool
}

func (m measure) String() string {
	v := "insufficient"
	if m.sufficient {
		v = strconv.FormatFloat(m.value, 'g', 6, 64)
	}
	return fmt.Sprintf("%s %s %s (n=%d)", m.name, v, m.unit, m.n)
}

// result is one run of one workload.
type result struct {
	workload          string
	attempted, failed int
	e2e, layer        []measure
}

func (r *result) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, measure{name: name, unit: unit, value: v, n: n, sufficient: true})
}

func (r *result) addLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, measure{name: name, unit: unit, value: v, n: n, sufficient: true})
}

func (r *result) addPercentile(name string, sorted []float64, q float64) {
	v, ok := percentile(sorted, q)
	r.e2e = append(r.e2e, measure{name: name, unit: "ms", value: v, n: len(sorted), sufficient: ok})
}

func (r *result) find(name string) (measure, bool) {
	for _, ms := range [][]measure{r.e2e, r.layer} {
		for _, m := range ms {
			if m.name == name {
				return m, true
			}
		}
	}
	return measure{}, false
}

// shown returns the measures a run prints: the end-to-end ones, and the
// per-layer ones when it was traced.
func shown(r *result, traced bool) []measure {
	if traced {
		return append(append([]measure(nil), r.e2e...), r.layer...)
	}
	return r.e2e
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qmatch-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qmatch-bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", defaultSeconds, "timed window per run, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced replay and the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the replay's spans as Chrome trace events to this file")
	repeat := fs.Int("repeat", 1, "runs per workload")
	jsonOut := fs.String("json", "", "also write the JSON summary to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || *seconds < 1 || *repeat < 1 || *trace != 0 && *trace != 1 {
		return fmt.Errorf("usage: -workload NAME -seed N -seconds N -trace 0|1 [-trace-out FILE] [-repeat N] [-json FILE]")
	}
	selected := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		selected = []spec{sp}
	}
	cfg := Config{
		Seed:   *seed,
		Window: time.Duration(*seconds) * time.Second,
		Trace:  *trace == 1 || *traceOut != "",
		Repo:   ".",
	}

	var runs [][]*result
	var spans *obs.MatchTrace
	for _, sp := range selected {
		var rs []*result
		for i := 0; i < *repeat; i++ {
			res, mt, err := runWorkload(cfg, sp)
			if err != nil {
				return err
			}
			for _, m := range shown(res, cfg.Trace) {
				fmt.Fprintf(out, "%s %s\n", res.workload, m)
			}
			rs = append(rs, res)
			if spans == nil {
				spans = mt
			} else {
				spans.Graft(mt, 0, spans.TotalNs)
			}
		}
		if *repeat > 1 {
			printSpread(out, rs, cfg.Trace)
		}
		runs = append(runs, rs)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, spans); err != nil {
			return err
		}
	}
	for _, rs := range runs {
		for _, res := range rs {
			for _, m := range shown(res, cfg.Trace) {
				if !m.sufficient {
					return fmt.Errorf("%s: %s has fewer than ten samples beyond it", res.workload, m.name)
				}
			}
		}
	}
	sum, err := summarize(runs, cfg.Trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func writeTrace(path string, mt *obs.MatchTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mt.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize builds the JSON line: the end-to-end metrics, or the per-layer
// ones for a traced run, as the median over repeats. With more than one
// workload the metric names carry a "<workload>/" prefix.
func summarize(runs [][]*result, traced bool) (*summary, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sum := &summary{Metrics: map[string]jsonMetric{}}
	for _, rs := range runs {
		for _, res := range rs {
			sum.Attempted += res.attempted
			sum.Failed += res.failed
		}
		for _, d := range defs {
			var vs []float64
			for _, res := range rs {
				m, ok := res.find(d.name)
				if !ok || math.IsNaN(m.value) {
					return nil, fmt.Errorf("%s: %s not measured", res.workload, d.name)
				}
				vs = append(vs, m.value)
			}
			key := d.name
			if len(runs) > 1 {
				key = rs[0].workload + "/" + d.name
			}
			sum.Metrics[key] = jsonMetric{Value: median(vs), Unit: d.unit}
		}
	}
	if sum.Attempted == 0 {
		return nil, errors.New("no ops attempted")
	}
	sum.Correct = sum.Failed == 0
	return sum, nil
}

// printSpread prints, for every metric of a workload's repeated runs, the
// median, the min/max spread as a share of the median, and the bound.
func printSpread(out io.Writer, rs []*result, traced bool) {
	for _, m := range shown(rs[0], traced) {
		var vs []float64
		for _, res := range rs {
			if v, ok := res.find(m.name); ok {
				vs = append(vs, v.value)
			}
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		med := median(vs)
		line := fmt.Sprintf("%s %s median %.6g %s min %.6g max %.6g spread %.1f%%",
			rs[0].workload, m.name, med, m.unit, lo, hi, 100*ratio(hi-lo, med))
		for _, d := range endToEnd {
			if d.name == m.name {
				verdict := "within"
				if ratio(hi-lo, med) > d.bound {
					verdict = "EXCEEDS"
				}
				line += fmt.Sprintf(" %s bound %.0f%%", verdict, 100*d.bound)
			}
		}
		fmt.Fprintf(out, "%s (runs=%d)\n", line, len(vs))
	}
}
