package qmatch_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/xsd"
)

// compilePair compiles the PO test pair.
func compilePair(t *testing.T, opts ...qmatch.CompileOption) (src, tgt *qmatch.CompiledSchema) {
	t.Helper()
	s, g := poPairXSD(t)
	cs, err := qmatch.Compile(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := qmatch.Compile(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cs, cg
}

// wireBytes renders a report through the library serializer — the wire
// format pinned by testdata/wire_golden.json.
func wireBytes(t *testing.T, r *qmatch.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompiledMatchEquivalence pins the core contract of the compiled
// path: MatchCompiled produces wire bytes bit-identical to Match over the
// same schemas — the parse-path side of which is itself pinned against
// testdata/wire_golden.json by TestWireFormatGolden.
func TestCompiledMatchEquivalence(t *testing.T) {
	src, tgt := poPairXSD(t)
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	parsed := wireBytes(t, eng.Match(src, tgt))

	csrc, err := qmatch.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ctgt, err := qmatch.Compile(tgt)
	if err != nil {
		t.Fatal(err)
	}
	compiled := wireBytes(t, eng.MatchCompiled(csrc, ctgt))
	if !bytes.Equal(parsed, compiled) {
		t.Errorf("compiled path diverged from parse path:\ncompiled:\n%s\nparsed:\n%s", compiled, parsed)
	}

	// And through a full encode→decode cycle: a schema matched from a
	// stored artifact must still be bit-identical.
	var blob bytes.Buffer
	if err := csrc.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	decoded, err := qmatch.DecodeCompiled(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID() != csrc.ID() {
		t.Fatalf("ID changed across encode/decode: %s != %s", decoded.ID(), csrc.ID())
	}
	fromDisk := wireBytes(t, eng.MatchCompiled(decoded, ctgt))
	if !bytes.Equal(parsed, fromDisk) {
		t.Errorf("decoded-artifact path diverged from parse path:\ngot:\n%s\nwant:\n%s", fromDisk, parsed)
	}
}

// TestCompiledMatchContextEquivalence covers the context variant and its
// cancellation contract.
func TestCompiledMatchContextEquivalence(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	csrc, ctgt := compilePair(t)
	report, err := eng.MatchCompiledContext(context.Background(), csrc, ctgt)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, eng.MatchCompiled(csrc, ctgt))
	if !bytes.Equal(wireBytes(t, report), want) {
		t.Error("MatchCompiledContext diverged from MatchCompiled")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MatchCompiledContext(cancelled, csrc, ctgt); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got err %v, want context.Canceled", err)
	}
}

// rankCorpus builds a small heterogeneous corpus around the PO query.
func rankCorpus(t *testing.T) (*qmatch.Schema, []*qmatch.Schema) {
	t.Helper()
	query := qmatch.FromTree(dataset.PO1())
	corpus := []*qmatch.Schema{
		qmatch.FromTree(dataset.Human()),
		qmatch.FromTree(dataset.PO2()),
		qmatch.FromTree(dataset.Book()),
		qmatch.FromTree(dataset.Article()),
		qmatch.FromTree(dataset.Library()),
	}
	return query, corpus
}

// TestPrefilterRecall pins the prefilter's correctness property: the
// prefilter only selects candidates, the order always comes from the full
// QoM — so RankCompiled with k ≥ len(corpus) must reproduce the
// exhaustive Rank order, scores and correspondences exactly.
func TestPrefilterRecall(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	query, corpus := rankCorpus(t)
	exhaustive := eng.Rank(query, corpus)

	cq, err := qmatch.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	ccorpus := make([]*qmatch.CompiledSchema, len(corpus))
	for i, s := range corpus {
		if ccorpus[i], err = qmatch.Compile(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{0, len(corpus), len(corpus) + 7} {
		ranked, err := eng.RankCompiled(context.Background(), cq, ccorpus, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ranked, exhaustive) {
			t.Errorf("k=%d: RankCompiled diverged from exhaustive Rank\ngot:  %+v\nwant: %+v",
				k, summarize(ranked), summarize(exhaustive))
		}
	}

	// With k=1 the single survivor must be the exhaustive winner: on this
	// corpus the best QoM match (po2) is also the best vocabulary overlap.
	top1, err := eng.RankCompiled(context.Background(), cq, ccorpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != 1 || top1[0].Index != exhaustive[0].Index {
		t.Errorf("k=1: got index %v, want the exhaustive winner %d", summarize(top1), exhaustive[0].Index)
	}
}

// summarize renders ranked results compactly for failure messages.
func summarize(rs []qmatch.Ranked) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Schema.Name())
		b.WriteByte(' ')
	}
	return b.String()
}

func TestPrefilterTopKOrder(t *testing.T) {
	query, corpus := rankCorpus(t)
	cq, err := qmatch.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	ccorpus := make([]*qmatch.CompiledSchema, len(corpus))
	for i, s := range corpus {
		if ccorpus[i], err = qmatch.Compile(s); err != nil {
			t.Fatal(err)
		}
	}
	all := qmatch.PrefilterTopK(cq, ccorpus, 0)
	if len(all) != len(corpus) {
		t.Fatalf("k=0 kept %d of %d", len(all), len(corpus))
	}
	for i := 1; i < len(all); i++ {
		a := cq.Overlap(ccorpus[all[i-1]])
		b := cq.Overlap(ccorpus[all[i]])
		if a < b {
			t.Errorf("prefilter order violated at %d: overlap %v before %v", i, a, b)
		}
	}
	two := qmatch.PrefilterTopK(cq, ccorpus, 2)
	if len(two) != 2 || two[0] != all[0] || two[1] != all[1] {
		t.Errorf("k=2 is not the prefix of the full order: %v vs %v", two, all[:2])
	}
}

func TestRankContext(t *testing.T) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	query, corpus := rankCorpus(t)
	want := eng.Rank(query, corpus)
	got, err := eng.RankContext(context.Background(), query, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("RankContext diverged from Rank")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.RankContext(cancelled, query, corpus); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("cancelled RankContext: got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func TestCompileOptionsChangeID(t *testing.T) {
	src, _ := poPairXSD(t)
	plain, err := qmatch.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := qmatch.Compile(src, qmatch.WithLabelTokens())
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID() == tokens.ID() {
		t.Error("WithLabelTokens did not change the content ID")
	}
	if len(tokens.Terms()) <= len(plain.Terms()) {
		t.Error("WithLabelTokens did not grow the prefilter vocabulary")
	}
	again, err := qmatch.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID() != plain.ID() {
		t.Error("recompiling the same schema changed the content ID")
	}
}

func TestDecodeCompiledTypedErrors(t *testing.T) {
	garbage := strings.Repeat("not an artifact blob ", 4) // longer than the header
	if _, err := qmatch.DecodeCompiled(strings.NewReader(garbage)); !errors.Is(err, qmatch.ErrArtifactMagic) {
		t.Errorf("garbage input: got %v, want ErrArtifactMagic", err)
	}
	if _, err := qmatch.DecodeCompiled(strings.NewReader("QM")); !errors.Is(err, qmatch.ErrArtifactTruncated) {
		t.Errorf("short input: got %v, want ErrArtifactTruncated", err)
	}
	src, _ := poPairXSD(t)
	cs, err := qmatch.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	blob[len(blob)-1] ^= 0xff
	if _, err := qmatch.DecodeCompiled(bytes.NewReader(blob)); !errors.Is(err, qmatch.ErrArtifactChecksum) {
		t.Errorf("corrupted payload: got %v, want ErrArtifactChecksum", err)
	}
}

// TestDefaultEngineRouting exercises the lazily-built default Engine the
// option-less package functions share: results must match an explicit
// default Engine, and option-ful calls must not be affected.
func TestDefaultEngineRouting(t *testing.T) {
	src, tgt := poPairXSD(t)
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, eng.Match(src, tgt))
	if !bytes.Equal(wireBytes(t, qmatch.Match(src, tgt)), want) {
		t.Error("package-level Match diverged from a fresh default Engine")
	}
	// A second call rides the same shared Engine (warm caches) and must
	// stay bit-identical.
	if !bytes.Equal(wireBytes(t, qmatch.Match(src, tgt)), want) {
		t.Error("repeated package-level Match diverged")
	}
	if got := qmatch.QoM(src, tgt); got != eng.QoM(src, tgt) {
		t.Error("package-level QoM diverged from a fresh default Engine")
	}
	// Option-ful calls still get their own configuration.
	structural := qmatch.Match(src, tgt, qmatch.WithAlgorithm(qmatch.Structural))
	if structural.Algorithm != "structural" {
		t.Errorf("option-ful Match ignored options: algorithm %q", structural.Algorithm)
	}
}

// TestCompiledSchemaAccessors covers the metadata views the registry and
// service expose.
func TestCompiledSchemaAccessors(t *testing.T) {
	src, _ := poPairXSD(t)
	cs, err := qmatch.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name() != src.Name() || cs.Size() != src.Size() {
		t.Errorf("accessor mismatch: %s/%d vs %s/%d", cs.Name(), cs.Size(), src.Name(), src.Size())
	}
	if cs.Schema() != src {
		t.Error("Schema() does not return the compiled schema")
	}
	if xsd.Render(cs.Schema().Tree()) != src.XSD() {
		t.Error("compiled tree renders differently")
	}
	if o := cs.Overlap(cs); o != 1 {
		t.Errorf("self overlap %v, want 1", o)
	}
}

// Compiled-path counterpart of core's TestTreeAllocsBounded: a warm
// MatchCompiled on the DCMD pair must stay within the arena-era ceiling.
// It runs at ~95 allocations — the compiled schemas carry pre-interned
// vocabularies, so selection and report assembly are most of what's left.
// The 600 ceiling trips on any return of per-cell allocation or loss of
// the pooled arena buffers.
func TestMatchCompiledAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool retention and alloc counts")
	}
	csrc, ctgt := compileDatasetPair(t, dataset.DCMDPair())
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	eng.MatchCompiled(csrc, ctgt) // warm memo caches and the buffer pool
	allocs := testing.AllocsPerRun(5, func() {
		eng.MatchCompiled(csrc, ctgt)
	})
	if allocs > 600 {
		t.Errorf("DCMD MatchCompiled = %.0f allocs/run, regression ceiling is 600", allocs)
	}
}
