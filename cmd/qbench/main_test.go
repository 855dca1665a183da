package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleSections(t *testing.T) {
	cases := map[string][]string{
		"Table 1.":  {"-table", "1"},
		"Figure 6.": {"-figure", "6"},
		"Figure 9.": {"-figure", "9"},
	}
	for want, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%v: missing %q:\n%s", args, want, out.String())
		}
	}
}

func TestRunFigure4Fast(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "4", "-fast", "-reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 4.") || !strings.Contains(s, "DCMD") {
		t.Fatalf("output:\n%s", s)
	}
	if strings.Contains(s, "Protein") {
		t.Fatal("-fast should skip the protein workload")
	}
}

func TestRunTable2Fast(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "2", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 2.") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunExtensions(t *testing.T) {
	cases := map[string][]string{
		"Extension: runtime":       {"-ext", "scalability", "-fast", "-reps", "1"},
		"Ablation: label-evidence": {"-ext", "ablation"},
	}
	for want, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%v: missing %q:\n%s", args, want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "7"},
		{"-figure", "2"},
		{"-ext", "bogus"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-ext", "pairtable", "-fast", "-reps", "1", "-metrics", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	// Three -fast corpus pairs matched on the instrumented Engine.
	for _, want := range []string{
		`"qmatch_matches_total": 3`,
		`"qmatch_phase_ns_total{phase=\"pairtable\"}"`,
		`"qmatch_match_duration_seconds"`,
		`"qmatch_phase_duration_seconds{phase=\"pairtable\"}"`,
		// Every non-empty histogram carries the p50/p90/p99 summary.
		`"percentiles"`,
		`"p50"`, `"p90"`, `"p99"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %q:\n%s", want, s)
		}
	}
}
