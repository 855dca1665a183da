package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"qmatch/internal/obs"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests pin against
// the command's own tables.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, command default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads, command has %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file %q %q, command %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	for _, pair := range []struct {
		file []benchmarkMetric
		defs []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.defs) {
			t.Fatalf("%d metrics in the file, %d in the command", len(pair.file), len(pair.defs))
		}
		for i, m := range pair.file {
			d := pair.defs[i]
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || bound != d.bound {
				t.Errorf("metric %d: file %+v, command %+v", i, m, d)
			}
		}
	}
}

// TestWorkloads runs every workload with a short window and the traced
// replay, through the same code the command runs. The window is long
// enough for a match-large op to complete under the race detector.
func TestWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) { testWorkload(t, f, sp) })
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

func testWorkload(t *testing.T, f benchmarkFile, sp spec) {
	cfg := Config{Seed: 1, Window: time.Second, Trace: true, Repo: "..", SetupReps: 1, TraceOps: 2}
	res, spans, err := runWorkload(cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d ops failed", sp.name, res.failed, res.attempted)
	}
	if m, _ := res.find("error_rate"); m.value != 0 {
		t.Errorf("%s: error_rate %v", sp.name, m.value)
	}
	lines := map[string]string{}
	for _, m := range shown(res, true) {
		lines[m.name] = sp.name + " " + m.String()
	}
	for _, m := range append(append([]benchmarkMetric(nil), f.EndToEnd...), f.PerLayer...) {
		line, ok := lines[m.Name]
		if !ok || !strings.HasPrefix(line, sp.name+" "+m.Name+" ") || !strings.Contains(line, " "+m.Unit+" (n=") {
			t.Errorf("%s: metric %s not printed with unit %s: %q", sp.name, m.Name, m.Unit, line)
		}
	}
	for _, traced := range []bool{false, true} {
		if _, err := summarize([][]*result{{res}}, traced); err != nil {
			t.Errorf("%s: summary: %v", sp.name, err)
		}
	}
	checkLayersAddUp(t, res)
	checkNesting(t, sp.name, spans)
	var events bytes.Buffer
	if err := spans.WriteTraceEvents(&events); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(events.Bytes(), &parsed); err != nil || len(parsed) < 2 {
		t.Errorf("%s: trace events do not load: %v", sp.name, err)
	}
}

// checkLayersAddUp pins that the direct calls and the unattributed rest
// add up to the HTTP round trip.
func checkLayersAddUp(t *testing.T, res *result) {
	t.Helper()
	get := func(name string) float64 {
		m, ok := res.find(name)
		if !ok {
			t.Fatalf("%s: %s missing", res.workload, name)
		}
		return m.value
	}
	sum := get("serve.decode_ms") + get("qmatch.parse_ms") + get("qmatch.work_ms") +
		get("qmatch.encode_ms") + get("serve.unattributed_ms")
	if req := get("serve.request_ms"); math.Abs(sum-req) > 1e-9*math.Max(1, req) {
		t.Errorf("%s: layers add up to %v ms, request %v ms", res.workload, sum, req)
	}
}

// checkNesting pins that every span lies inside its parent, which is how
// trace viewers nest them.
func checkNesting(t *testing.T, workload string, mt *obs.MatchTrace) {
	t.Helper()
	byID := make(map[int64]obs.Span, len(mt.Spans))
	for _, s := range mt.Spans {
		byID[s.ID] = s
	}
	for _, s := range mt.Spans {
		p, ok := byID[s.ParentID]
		if ok && (s.StartNs < p.StartNs || s.StartNs+s.DurationNs > p.StartNs+p.DurationNs) {
			t.Errorf("%s: span %s is not inside its parent %s", workload, s.Phase, p.Phase)
			return
		}
	}
}

// requestDeck serializes what a workload sends before and at the start of
// its timed window.
func requestDeck(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	var ops []*op
	switch name {
	case "match-small":
		deck, err := matchSmallDeck(seed, "..")
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range deck {
			ops = append(ops, it.op)
		}
	case "match-large":
		for _, it := range matchLargeDeck(seed) {
			ops = append(ops, it.op)
		}
	case "registry-search":
		in := newSearchInputs(seed)
		ops = append(in.puts, in.deck...)
	case "registry-evolve":
		w := &evolveWorkload{in: newEvolveInputs(seed)}
		ops = w.in.puts
		for c := 0; c < clients; c++ {
			ops = append(ops, w.warmup(c)...)
			s := w.stream(c)
			for i := 0; i < 100; i++ {
				ops = append(ops, s.next())
			}
		}
	default:
		t.Fatalf("no deck for %s", name)
	}
	var buf bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&buf, "%s %s\n%s\n", o.method, o.path, o.body)
	}
	return buf.Bytes()
}

func TestDecksFollowSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := requestDeck(t, sp.name, 1), requestDeck(t, sp.name, 1), requestDeck(t, sp.name, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two different decks", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same deck", sp.name)
		}
	}
}

func TestCheckCountsCorruptBody(t *testing.T) {
	deck, err := matchSmallDeck(1, "..")
	if err != nil {
		t.Fatal(err)
	}
	w := &matchWorkload{seed: 1, deck: deck[:1]}
	eng, err := matchEngine(deck[0].override)
	if err != nil {
		t.Fatal(err)
	}
	src, tgt, err := deck[0].schemas()
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := eng.Match(src, tgt).WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(body.Bytes(), []byte(`"hybrid"`), []byte(`"hybriD"`), 1)
	s := w.stream(0)
	good := reply{op: deck[0].op, status: 200, end: time.Millisecond}
	bad := reply{op: deck[0].op, status: 200, end: time.Millisecond}
	s.digest(&good, body.Bytes())
	s.digest(&bad, corrupt)
	if err := w.check([]*reply{&good, &bad}); err != nil {
		t.Fatal(err)
	}
	if good.failed || !bad.failed {
		t.Fatalf("check: correct body failed=%v, corrupted body failed=%v", good.failed, bad.failed)
	}
	res := &result{workload: "match-small"}
	windowMetrics(res, specs[0], time.Second, []*reply{&good, &bad}, []float64{1}, 1, 1, snapshot{}, snapshot{})
	if m, _ := res.find("error_rate"); m.value != 0.5 {
		t.Errorf("error_rate %v with one corrupted body of two", m.value)
	}
}
