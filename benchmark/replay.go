package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qmatch"
	"qmatch/internal/core"
	"qmatch/internal/lingo"
	"qmatch/internal/obs"
	"qmatch/internal/registry"
	"qmatch/internal/serve"
)

// The traced replay runs a fixed seeded sample of a workload's ops on one
// client, after the timed window. Each op is one root span ("op") with:
//
//   - serve.request: the HTTP round trip of the op on the live server;
//   - the direct calls: the layers' public functions, called in the order
//     the server calls them, each in its own span (serve.decode,
//     xsd.parse, qmatch.match, registry.search, qmatch.encode, ...);
//   - probes: calls that measure a layer but are not part of the op (an
//     untraced Engine.Match, Matcher.Tree at two parallelisms, ...).
//
// serve.unattributed is serve.request minus the direct calls. Inside
// Engine.Match there is no public call per phase, so the intern, pairtable
// and select spans of Report.Trace are grafted under qmatch.match; the
// prefilter and rank timings registry.Search reports are grafted under
// registry.search the same way.

// replayer records the spans of one workload's traced replay.
type replayer struct {
	tr                *obs.Trace
	client            *loadClient
	dir               string // temporary directory for a mirror registry
	grafts            []graft
	ops               int
	attempted, failed int
	extra             []measure
}

type graft struct {
	parent int64
	child  *obs.MatchTrace
}

func newReplayer(cl *loadClient, dir string) *replayer {
	return &replayer{tr: obs.NewTrace(), client: cl, dir: dir}
}

// begin opens the root span of one op.
func (rp *replayer) begin() *obs.ActiveSpan {
	rp.ops++
	return rp.tr.StartChild(nil, "op")
}

// request sends o inside a serve.request span; ok judges the reply.
func (rp *replayer) request(root *obs.ActiveSpan, o *op, ok func(status int, body []byte) bool) {
	s := root.Child("serve.request")
	status, _, body := rp.client.do(o)
	s.End()
	rp.attempted++
	if !ok(status, body) {
		rp.failed++
	}
}

// call runs fn in a span under parent and returns the span's ID.
func call(parent *obs.ActiveSpan, name string, fn func()) int64 {
	s := parent.Child(obs.Phase(name))
	fn()
	s.End()
	return s.ID()
}

// parse parses a request schema in its parser's span.
func parse(parent *obs.ActiveSpan, in *serve.SchemaInput) (*qmatch.Schema, error) {
	if in == nil {
		return nil, errors.New("request without schema")
	}
	name, parseFn := parser(*in)
	var s *qmatch.Schema
	var err error
	call(parent, name, func() { s, err = parseFn() })
	return s, err
}

// graftReport files the phase spans an Engine attached to a report, to be
// placed under the span that made the call.
func (rp *replayer) graftReport(parent int64, t *qmatch.MatchTrace) {
	if parent == 0 || t == nil {
		return
	}
	mt := &obs.MatchTrace{TotalNs: t.TotalNs, Spans: make([]obs.Span, len(t.Spans))}
	for i, s := range t.Spans {
		mt.Spans[i] = obs.Span{
			Phase: obs.Phase(s.Phase), ID: s.ID, ParentID: s.ParentID,
			StartNs: s.StartNs, DurationNs: s.DurationNs,
			SrcNodes: s.SrcNodes, TgtNodes: s.TgtNodes, Cells: s.Cells,
			Workers: s.Workers, Selected: s.Selected, Level: s.Level, Partial: s.Partial,
		}
	}
	rp.grafts = append(rp.grafts, graft{parent, mt})
}

func (rp *replayer) measure(name, unit string, v float64, n int) {
	rp.extra = append(rp.extra, measure{name: name, unit: unit, value: v, n: n, sufficient: true})
}

// openRegistry times registry.Open on a populated directory.
func (rp *replayer) openRegistry(dir string) error {
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := registry.Open(dir); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	rp.measure("registry.open_ms", "ms", median(ms), len(ms))
	return nil
}

// finish closes the trace, grafts the engine-reported spans, and adds the
// per-layer metrics to res.
func (rp *replayer) finish(res *result) *obs.MatchTrace {
	mt := rp.tr.Finish()
	start := make(map[int64]int64, len(mt.Spans))
	for _, s := range mt.Spans {
		start[s.ID] = s.StartNs
	}
	for _, g := range rp.grafts {
		mt.Graft(g.child, g.parent, start[g.parent])
	}
	layerMetrics(res, mt, rp.ops)
	res.layer = append(res.layer, rp.extra...)
	res.attempted += rp.attempted
	res.failed += rp.failed
	return mt
}

// selfNs is a span's duration minus the part of it its children cover.
func selfNs(s *obs.Span, kids []*obs.Span) int64 {
	var iv [][2]int64
	for _, k := range kids {
		lo, hi := max(k.StartNs, s.StartNs), min(k.StartNs+k.DurationNs, s.StartNs+s.DurationNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	for _, in := range iv {
		lo := max(in[0], end)
		if in[1] > lo {
			covered += in[1] - lo
		}
		end = max(end, in[1])
	}
	return s.DurationNs - covered
}

// spanLayers are the layer metrics read from one span name: the mean over
// the ops that cross the layer of the span's duration, or of its self
// time.
var spanLayers = []struct {
	metric, span string
	self         bool
}{
	{"xsd.parse_ms", "xsd.parse", false},
	{"jsonschema.parse_ms", "jsonschema.parse", false},
	{"ddl.parse_ms", "ddl.parse", false},
	{"core.intern_ms", string(obs.PhaseIntern), false},
	{"core.pairtable_ms", string(obs.PhasePairTable), false},
	{"match.select_ms", string(obs.PhaseSelect), false},
	{"qmatch.match_self_ms", string(obs.PhaseMatch), true},
	{"core.tree_p1_ms", "core.tree_p1", false},
	{"core.tree_pN_ms", "core.tree_pN", false},
	{"artifact.compile_ms", "artifact.compile", false},
	{"registry.prefilter_ms", string(obs.PhasePrefilter), false},
	{"registry.rank_ms", "rank", false},
	{"registry.match_ms", "registry.match", false},
	{"registry.put_ms", "registry.put", false},
	{"artifact.encode_ms", "artifact.encode", false},
}

// layerMetrics derives the per-layer metrics of a finished replay trace.
// The ones every workload reports are per-op means over all traced ops,
// and add up: serve.request = decode + parse + work + encode +
// unattributed.
func layerMetrics(res *result, mt *obs.MatchTrace, ops int) {
	byID := make(map[int64]*obs.Span, len(mt.Spans))
	kids := make(map[int64][]*obs.Span, len(mt.Spans))
	for i := range mt.Spans {
		s := &mt.Spans[i]
		byID[s.ID] = s
		kids[s.ParentID] = append(kids[s.ParentID], s)
	}
	opOf := func(s *obs.Span) int64 {
		for s.ParentID != 0 && byID[s.ParentID] != nil {
			s = byID[s.ParentID]
		}
		return s.ID
	}
	dur := map[string]float64{}
	self := map[string]float64{}
	crossing := map[string]map[int64]bool{}
	for i := range mt.Spans {
		s := &mt.Spans[i]
		name := string(s.Phase)
		dur[name] += float64(s.DurationNs)
		self[name] += float64(selfNs(s, kids[s.ID]))
		if crossing[name] == nil {
			crossing[name] = map[int64]bool{}
		}
		crossing[name][opOf(s)] = true
	}
	var request, direct float64
	for _, root := range kids[0] {
		for _, c := range kids[root.ID] {
			switch c.Phase {
			case "serve.request":
				request += float64(c.DurationNs)
			case "probes":
			default:
				direct += float64(c.DurationNs)
			}
		}
	}
	perOp := func(ns float64) float64 { return ns / 1e6 / float64(ops) }
	parseNs := dur["xsd.parse"] + dur["jsonschema.parse"] + dur["ddl.parse"]
	res.addLayer("serve.request_ms", "ms", perOp(request), ops)
	res.addLayer("serve.decode_ms", "ms", perOp(dur["serve.decode"]), ops)
	res.addLayer("qmatch.parse_ms", "ms", perOp(parseNs), ops)
	res.addLayer("qmatch.work_ms", "ms", perOp(direct-dur["serve.decode"]-parseNs-dur["qmatch.encode"]), ops)
	res.addLayer("qmatch.encode_ms", "ms", perOp(dur["qmatch.encode"]), ops)
	res.addLayer("serve.unattributed_ms", "ms", perOp(request-direct), ops)
	for _, l := range spanLayers {
		n := len(crossing[l.span])
		if n == 0 {
			continue
		}
		v := dur[l.span]
		if l.self {
			v = self[l.span]
		}
		res.addLayer(l.metric, "ms", v/1e6/float64(n), n)
	}
	if untraced := dur["probe.match_untraced"]; untraced > 0 {
		res.addLayer("qmatch.trace_overhead_ratio", "ratio", dur["qmatch.match"]/untraced, len(crossing["qmatch.match"]))
	}
}

// sample draws the replay's op indices from its own seeded stream.
func sample(seed int64, n, of int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, "replay")))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(of)
	}
	return out
}

// matchProbes are the engines and matchers a match op is replayed on, for
// one override: the traced Engine, an untraced one for the tracing
// overhead, and core.Matcher set up like the Engine's at parallelism 1 and
// at GOMAXPROCS. Each matcher has its own label-score cache, so the second
// fill of an op does not find the first one's label pairs cached.
type matchProbes struct {
	traced, plain *qmatch.Engine
	p1, pN        *core.Matcher
}

func newMatchProbes(ov int, plain *qmatch.Engine) (*matchProbes, error) {
	traced, err := matchEngine(ov, qmatch.WithObserver(qmatch.Observer{Tracing: true}))
	if err != nil {
		return nil, err
	}
	th := lingo.NewThesaurus()
	th.Merge(lingo.Default())
	tree := func(par int) *core.Matcher {
		m := core.NewMatcher(th)
		if ov >= 0 && overrides[ov].weights != nil {
			w := overrides[ov].weights
			m.Weights = core.AxisWeights{Label: w.Label, Properties: w.Properties, Level: w.Level, Children: w.Children}
		}
		m.Scores = lingo.NewScoreCache(0)
		m.Parallelism = par
		return m
	}
	return &matchProbes{traced: traced, plain: plain, p1: tree(1), pN: tree(runtime.GOMAXPROCS(0))}, nil
}

func (w *matchWorkload) replay(rp *replayer, n int) error {
	pairs, err := workingSetPairs(w.deck)
	if err != nil {
		return err
	}
	rp.measure("lingo.working_set_pairs", "count", float64(pairs), len(w.deck))
	probes := map[int]*matchProbes{}
	for ov, plain := range w.engines {
		if probes[ov], err = newMatchProbes(ov, plain); err != nil {
			return err
		}
	}
	// The untraced engines made a pass over the deck computing the
	// expected bodies. An untimed pass gives the traced engine and the
	// matchers the same label-cache state, as the warm-up and the window
	// gave the server.
	for _, it := range w.deck {
		src, tgt, err := it.schemas()
		if err != nil {
			return err
		}
		p := probes[it.override]
		p.traced.Match(src, tgt)
		p.p1.Tree(src.Tree(), tgt.Tree()).Release()
		p.pN.Tree(src.Tree(), tgt.Tree()).Release()
	}
	idx := sample(w.seed, n, len(w.deck))
	var cells float64
	for _, i := range idx {
		it := w.deck[i]
		root := rp.begin()
		rp.request(root, it.op, func(status int, body []byte) bool {
			return status == 200 && digest(body) == w.want[i]
		})
		c, err := w.replayOne(rp, it, probes[it.override], root)
		root.End()
		if err != nil {
			return err
		}
		cells += float64(c)
	}
	rp.measure("core.cells", "count", cells/float64(len(idx)), len(idx))
	return nil
}

// replayOne makes the direct calls and probes of one match op and returns
// its pair-table cell count.
func (w *matchWorkload) replayOne(rp *replayer, it *matchItem, p *matchProbes, root *obs.ActiveSpan) (int, error) {
	var req serve.MatchRequest
	var err error
	call(root, "serve.decode", func() { err = json.Unmarshal(it.op.body, &req) })
	if err != nil {
		return 0, err
	}
	src, err := parse(root, req.Source)
	if err != nil {
		return 0, err
	}
	tgt, err := parse(root, req.Target)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	var rep *qmatch.Report
	id := call(root, "qmatch.match", func() { rep, err = p.traced.MatchContext(ctx, src, tgt) })
	if err != nil {
		return 0, err
	}
	rp.graftReport(id, rep.Trace)
	rep.Trace = nil // the server's engine attaches none
	var buf bytes.Buffer
	call(root, "qmatch.encode", func() { err = rep.WriteJSON(&buf) })
	if err != nil {
		return 0, err
	}
	probe := root.Child("probes")
	call(probe, "probe.match_untraced", func() { _, err = p.plain.MatchContext(ctx, src, tgt) })
	call(probe, "core.tree_p1", func() { p.p1.Tree(src.Tree(), tgt.Tree()).Release() })
	call(probe, "core.tree_pN", func() { p.pN.Tree(src.Tree(), tgt.Tree()).Release() })
	probe.End()
	return src.Size() * tgt.Size(), err
}

// workingSetPairs counts the distinct (source label, target label) pairs
// of a deck — the label-score cache entries one pass over it needs.
func workingSetPairs(deck []*matchItem) (int, error) {
	ids := map[string]int64{}
	labelIDs := func(in serve.SchemaInput) ([]int64, error) {
		_, parseFn := parser(in)
		s, err := parseFn()
		if err != nil {
			return nil, err
		}
		labels := core.Intern(s.Tree().Nodes()).Labels
		out := make([]int64, len(labels))
		for i, l := range labels {
			v, ok := ids[l]
			if !ok {
				v = int64(len(ids))
				ids[l] = v
			}
			out[i] = v
		}
		return out, nil
	}
	var keys []int64
	for _, it := range deck {
		src, err := labelIDs(it.src)
		if err != nil {
			return 0, err
		}
		tgt, err := labelIDs(it.tgt)
		if err != nil {
			return 0, err
		}
		for _, a := range src {
			for _, b := range tgt {
				keys = append(keys, a<<32|b)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			n++
		}
	}
	return n, nil
}

func (w *searchWorkload) replay(rp *replayer, n int) error {
	if err := rp.openRegistry(w.dir); err != nil {
		return err
	}
	reg, err := registry.Open("")
	if err != nil {
		return err
	}
	for i, id := range w.in.ids {
		if err := reg.Put(id, w.corpus[i]); err != nil {
			return err
		}
	}
	idx := sample(w.seed, n, len(w.in.deck))
	var candidates, corpus float64
	for _, i := range idx {
		o := w.in.deck[i]
		root := rp.begin()
		rp.request(root, o, func(status int, body []byte) bool {
			return status == 200 && resultsDigest(body) == w.want[o.item]
		})
		stats, err := w.replayOne(rp, reg, o, root)
		root.End()
		if err != nil {
			return err
		}
		candidates += float64(stats.Candidates)
		corpus += float64(stats.Corpus)
	}
	rp.measure("registry.candidates_ratio", "ratio", ratio(candidates, corpus), len(idx))
	return nil
}

func (w *searchWorkload) replayOne(rp *replayer, reg *registry.Registry, o *op, root *obs.ActiveSpan) (registry.SearchStats, error) {
	var req serve.SearchRequest
	var err error
	call(root, "serve.decode", func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return registry.SearchStats{}, err
	}
	q, err := parse(root, req.Query)
	if err != nil {
		return registry.SearchStats{}, err
	}
	var cs *qmatch.CompiledSchema
	call(root, "artifact.compile", func() { cs, err = w.eng.Compile(q) })
	if err != nil {
		return registry.SearchStats{}, err
	}
	var results []registry.Result
	var stats registry.SearchStats
	var took int64
	id := call(root, "registry.search", func() {
		start := time.Now()
		results, stats, err = reg.Search(context.Background(), w.eng, cs, req.K)
		took = time.Since(start).Nanoseconds()
	})
	if err != nil {
		return stats, err
	}
	if id != 0 {
		// registry.Search reports its two stages' wall times; the rank
		// stage ends the call.
		rp.grafts = append(rp.grafts, graft{id, &obs.MatchTrace{TotalNs: took, Spans: []obs.Span{
			{Phase: obs.PhasePrefilter, ID: 1, DurationNs: stats.PrefilterNs},
			{Phase: "rank", ID: 2, StartNs: took - stats.RankNs, DurationNs: stats.RankNs},
		}}})
	}
	call(root, "qmatch.encode", func() { encodeIndented(serve.SearchResponse{Results: results, Stats: stats}) })
	return stats, nil
}

func (w *evolveWorkload) replay(rp *replayer, n int) error {
	if err := rp.openRegistry(w.dir); err != nil {
		return err
	}
	eng, err := qmatch.NewEngine(append(serverOptions(), qmatch.WithRematchState())...)
	if err != nil {
		return err
	}
	reg, err := registry.Open(filepath.Join(rp.dir, "mirror"))
	if err != nil {
		return err
	}
	// The sample continues client 0's op stream on its own seed. A mirror
	// disk registry holds client 0's ids at their current versions with
	// its pairs cached, as the server does.
	s := newEvolveStream(w.in, 0, subSeed(w.in.seed, "replay"), w.streams[0].ver)
	for _, id := range w.in.owned[0] {
		cs, err := compileXSD(eng, w.in.version(id, s.ver[id]))
		if err != nil {
			return err
		}
		if err := reg.Put(w.in.ids[id], cs); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for _, p := range w.in.pairs[0] {
		if _, _, err := reg.Match(ctx, eng, w.in.ids[p[0]], w.in.ids[p[1]]); err != nil {
			return err
		}
	}
	var puts, refreshed, copied, rescored float64
	for i := 0; i < n; i++ {
		o := s.next()
		root := rp.begin()
		rp.request(root, o, func(status int, _ []byte) bool { return status/100 == 2 })
		var err error
		if o.write {
			var stats []registry.RefreshStat
			stats, err = w.replayWrite(eng, reg, o, root)
			puts++
			refreshed += float64(len(stats))
			for _, st := range stats {
				copied += float64(st.Rematch.CopiedCells)
				rescored += float64(st.Rematch.RescoredCells)
			}
		} else {
			err = w.replayRead(eng, reg, o, root)
		}
		root.End()
		if err != nil {
			return err
		}
	}
	rp.measure("registry.refreshed_per_put", "count", ratio(refreshed, puts), int(puts))
	rp.measure("registry.rescored_ratio", "ratio", ratio(rescored, copied+rescored), int(refreshed))
	return nil
}

func (w *evolveWorkload) replayRead(eng *qmatch.Engine, reg *registry.Registry, o *op, root *obs.ActiveSpan) error {
	var req serve.SchemaMatchRequest
	var err error
	call(root, "serve.decode", func() {
		if err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&req); errors.Is(err, io.EOF) {
			err = nil // the body is optional
		}
	})
	if err != nil {
		return err
	}
	p := w.in.pair(o.item)
	var rep *qmatch.Report
	call(root, "registry.match", func() { rep, _, err = reg.Match(context.Background(), eng, w.in.ids[p[0]], w.in.ids[p[1]]) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	call(root, "qmatch.encode", func() { err = rep.WriteJSON(&buf) })
	return err
}

func (w *evolveWorkload) replayWrite(eng *qmatch.Engine, reg *registry.Registry, o *op, root *obs.ActiveSpan) ([]registry.RefreshStat, error) {
	var req serve.PutSchemaRequest
	var err error
	call(root, "serve.decode", func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return nil, err
	}
	s, err := parse(root, req.Schema)
	if err != nil {
		return nil, err
	}
	var cs *qmatch.CompiledSchema
	call(root, "artifact.compile", func() { cs, err = eng.Compile(s) })
	if err != nil {
		return nil, err
	}
	id := w.in.ids[o.item]
	var stats []registry.RefreshStat
	call(root, "registry.put", func() { stats, err = reg.PutRematch(id, cs, eng) })
	if err != nil {
		return nil, err
	}
	call(root, "qmatch.encode", func() {
		encodeIndented(serve.SchemaEntryResponse{Entry: registry.EntryOf(id, cs), Rematched: stats})
	})
	probe := root.Child("probes")
	var buf bytes.Buffer
	call(probe, "artifact.encode", func() { err = cs.Encode(&buf) })
	probe.End()
	return stats, err
}
