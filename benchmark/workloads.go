package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"sort"

	"qmatch"
	"qmatch/internal/registry"
	"qmatch/internal/serve"
)

// workload is one traffic mix: its generated inputs and expected outputs,
// the server-side state it needs, the op streams of its clients, the
// checks on the replies, and its traced replay.
type workload interface {
	// setup starts qmatchd and loads the workload's server-side state. It
	// is the program set-up setup_s times; dir is a fresh directory for a
	// disk registry.
	setup(dir string) (*server, error)
	// stream returns client c's op source and reply digest. One stream
	// serves the client's warm-up pass and its timed window.
	stream(c int) stream
	// warmup returns client c's ops of the fixed warm-up pass.
	warmup(c int) []*op
	// check compares delivered 2xx replies with the library's own output
	// and marks the wrong ones failed.
	check(rs []*reply) error
	// replay runs n sampled ops through the tracer.
	replay(rp *replayer, n int) error
}

// stream is one closed-loop client's side of a workload.
type stream interface {
	next() *op
	// digest keeps what the check needs of a 2xx body. It runs inside the
	// timed window, so it only hashes or copies.
	digest(r *reply, body []byte)
}

var digestSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// deckStream cycles a fixed deck, starting at an offset per client.
type deckStream struct {
	ops []*op
	i   int
	sum func([]byte) uint64
}

func (s *deckStream) next() *op {
	o := s.ops[s.i%len(s.ops)]
	s.i++
	return o
}

func (s *deckStream) digest(r *reply, body []byte) { r.sum = s.sum(body) }

// halfDeck returns client c's share of a warm-up pass over ops.
func halfDeck(ops []*op, c int) []*op {
	var out []*op
	for i := c; i < len(ops); i += clients {
		out = append(out, ops[i])
	}
	return out
}

// putAll registers the corpus through the HTTP API, one PUT at a time;
// every reply must be a 201 carrying the id.
func putAll(srv *server, puts []*op) error {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := &loadClient{http: &http.Client{Transport: tr}, base: srv.url}
	for _, o := range puts {
		status, _, body := c.do(o)
		var e serve.SchemaEntryResponse
		if status != http.StatusCreated || json.Unmarshal(body, &e) != nil || "/v1/schemas/"+e.ID != o.path {
			return fmt.Errorf("setup %s %s: status %d", o.method, o.path, status)
		}
	}
	return nil
}

// loadRegistry is the set-up of the registry workloads: qmatchd on a disk
// registry, the corpus PUT through the API, then a restart on that
// directory so the corpus is served from reloaded blobs.
func loadRegistry(dir string, puts []*op) (*server, error) {
	srv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	if err := putAll(srv, puts); err != nil {
		srv.stop()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return startServer(dir)
}

// parser names the parser layer of a request schema and returns the call
// qmatchd makes to parse it, for the formats the decks send.
func parser(in serve.SchemaInput) (string, func() (*qmatch.Schema, error)) {
	switch in.Format {
	case "", "xsd":
		return "xsd.parse", func() (*qmatch.Schema, error) { return qmatch.ParseSchemaString(in.Data) }
	case "jsonschema":
		return "jsonschema.parse", func() (*qmatch.Schema, error) { return qmatch.ParseJSONSchemaString(in.Data) }
	case "ddl":
		return "ddl.parse", func() (*qmatch.Schema, error) { return qmatch.ParseDDLString(in.Data, in.Root) }
	}
	return "parse", func() (*qmatch.Schema, error) { return nil, fmt.Errorf("deck format %q", in.Format) }
}

// matchWorkload is match-small or match-large: POST /v1/match over a deck.
type matchWorkload struct {
	seed int64
	deck []*matchItem
	// The check fills these after the timed window, so the harness's
	// engines are not on the heap the window measures. want is the digest
	// of each request's expected body; engines, one per override (-1 for
	// none), computed them, so their label caches have seen the deck.
	want    []uint64
	engines map[int]*qmatch.Engine
}

// schemas parses the item's source and target.
func (it *matchItem) schemas() (*qmatch.Schema, *qmatch.Schema, error) {
	_, parseSrc := parser(it.src)
	src, err := parseSrc()
	if err != nil {
		return nil, nil, fmt.Errorf("%s source: %w", it.name, err)
	}
	_, parseTgt := parser(it.tgt)
	tgt, err := parseTgt()
	if err != nil {
		return nil, nil, fmt.Errorf("%s target: %w", it.name, err)
	}
	return src, tgt, nil
}

// expect computes the expected body of every deck request: Engine.Match
// with the server's options and the request's overrides, serialized by
// Report.WriteJSON.
func (w *matchWorkload) expect() error {
	w.engines = map[int]*qmatch.Engine{}
	w.want = make([]uint64, len(w.deck))
	var buf bytes.Buffer
	for i, it := range w.deck {
		eng := w.engines[it.override]
		if eng == nil {
			var err error
			if eng, err = matchEngine(it.override); err != nil {
				return err
			}
			w.engines[it.override] = eng
		}
		src, tgt, err := it.schemas()
		if err != nil {
			return err
		}
		buf.Reset()
		if err := eng.Match(src, tgt).WriteJSON(&buf); err != nil {
			return err
		}
		w.want[i] = digest(buf.Bytes())
	}
	return nil
}

// matchEngine builds an Engine with the server's options plus an override
// (-1 for none) and any extra options.
func matchEngine(ov int, extra ...qmatch.Option) (*qmatch.Engine, error) {
	opts := serverOptions()
	if ov >= 0 {
		opts = append(opts, overrides[ov].options()...)
	}
	return qmatch.NewEngine(append(opts, extra...)...)
}

func (w *matchWorkload) ops() []*op {
	ops := make([]*op, len(w.deck))
	for i, it := range w.deck {
		ops[i] = it.op
	}
	return ops
}

func (w *matchWorkload) setup(string) (*server, error) { return startServer("") }

func (w *matchWorkload) stream(c int) stream {
	return &deckStream{ops: w.ops(), i: c * len(w.deck) / clients, sum: digest}
}

func (w *matchWorkload) warmup(c int) []*op { return halfDeck(w.ops(), c) }

func (w *matchWorkload) check(rs []*reply) error {
	if err := w.expect(); err != nil {
		return err
	}
	for _, r := range rs {
		if r.sum != w.want[r.op.item] {
			r.failed = true
		}
	}
	return nil
}

// searchWorkload is registry-search: POST /v1/search against a corpus
// loaded at set-up.
type searchWorkload struct {
	seed int64
	in   *searchInputs
	dir  string // the serving registry's directory
	// The check fills these after the timed window: the compiled corpus,
	// the digest of each query's expected results, and the Engine that
	// computed them, whose label cache has seen every query of the deck.
	corpus []*qmatch.CompiledSchema
	want   []uint64
	eng    *qmatch.Engine
}

func compileXSD(eng *qmatch.Engine, xsd string) (*qmatch.CompiledSchema, error) {
	s, err := qmatch.ParseSchemaString(xsd)
	if err != nil {
		return nil, err
	}
	return eng.Compile(s)
}

// expect computes the expected results of every query: Engine.RankCompiled
// over the prefilter's survivors of the corpus in id order.
func (w *searchWorkload) expect() error {
	eng, err := qmatch.NewEngine(serverOptions()...)
	if err != nil {
		return err
	}
	w.eng = eng
	for _, xsd := range w.in.corpus {
		cs, err := compileXSD(eng, xsd)
		if err != nil {
			return err
		}
		w.corpus = append(w.corpus, cs)
	}
	for _, xsd := range w.in.queries {
		q, err := compileXSD(eng, xsd)
		if err != nil {
			return err
		}
		results, err := rankCorpus(eng, q, w.corpus, w.in.ids)
		if err != nil {
			return err
		}
		w.want = append(w.want, resultsDigest(encodeIndented(serve.SearchResponse{Results: results})))
	}
	return nil
}

// rankCorpus is the reference search: the top-K prefilter, then a full
// RankCompiled of the survivors in corpus (id) order.
func rankCorpus(eng *qmatch.Engine, q *qmatch.CompiledSchema, corpus []*qmatch.CompiledSchema, ids []string) ([]registry.Result, error) {
	keep := qmatch.PrefilterTopK(q, corpus, searchK)
	sort.Ints(keep)
	sub := make([]*qmatch.CompiledSchema, len(keep))
	for i, ci := range keep {
		sub[i] = corpus[ci]
	}
	ranked, err := eng.RankCompiled(context.Background(), q, sub, 0)
	if err != nil {
		return nil, err
	}
	out := make([]registry.Result, len(ranked))
	for i, rk := range ranked {
		ci := keep[rk.Index]
		out[i] = registry.Result{ID: ids[ci], Score: rk.Score, Overlap: q.Overlap(corpus[ci]), Correspondences: rk.Correspondences}
	}
	return out, nil
}

// encodeIndented serializes v as qmatchd's JSON envelopes are written.
func encodeIndented(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // the response types always marshal
	}
	return buf.Bytes()
}

// resultsDigest hashes a search response up to its "stats" member, which
// carries timings and is the only part allowed to differ between runs.
func resultsDigest(body []byte) uint64 {
	if i := bytes.LastIndex(body, []byte(`"stats":`)); i >= 0 {
		body = body[:i]
	}
	return digest(body)
}

func (w *searchWorkload) setup(dir string) (*server, error) {
	w.dir = dir
	return loadRegistry(dir, w.in.puts)
}

func (w *searchWorkload) stream(c int) stream {
	return &deckStream{ops: w.in.deck, i: c * len(w.in.deck) / clients, sum: resultsDigest}
}

func (w *searchWorkload) warmup(c int) []*op { return halfDeck(w.in.deck, c) }

func (w *searchWorkload) check(rs []*reply) error {
	if err := w.expect(); err != nil {
		return err
	}
	for _, r := range rs {
		if r.sum != w.want[r.op.item] {
			r.failed = true
		}
	}
	return nil
}

// evolveWorkload is registry-evolve: cached pair matches read beside
// re-PUTs that evolve the schemas and rematch their cached pairs.
type evolveWorkload struct {
	in      *evolveInputs
	streams [clients]*evolveStream
	dir     string // the serving registry's directory
}

func (w *evolveWorkload) setup(dir string) (*server, error) {
	w.dir = dir
	return loadRegistry(dir, w.in.puts)
}

func (w *evolveWorkload) stream(c int) stream {
	w.streams[c] = newEvolveStream(w.in, c, subSeed(w.in.seed, "evolve-ops", c), make([]int, len(w.in.ids)))
	return w.streams[c]
}

// warmup reads each of the client's pairs once, caching its match.
func (w *evolveWorkload) warmup(c int) []*op {
	ops := make([]*op, evolvePairs)
	for k := range ops {
		ops[k] = w.in.readOp(c, k, 0, 0)
	}
	return ops
}

// tuple names one version of one pair: every read of it must return the
// same bytes.
type tuple struct{ item, va, vb int }

type keptRead struct {
	key  tuple
	body []byte
}

// keptPerClient bounds the read bodies a client keeps for the fresh-match
// check: a uniform sample of the distinct tuples it read.
const keptPerClient = 128

// evolveStream is one registry-evolve client: 90% reads of its own pairs,
// 10% re-PUTs of its own ids at their next version.
type evolveStream struct {
	in      *evolveInputs
	c       int
	ops     *rand.Rand
	ver     []int // current version of every id; the client changes only its own
	seen    map[tuple]bool
	kept    []keptRead
	sampler *rand.Rand
}

func newEvolveStream(in *evolveInputs, c int, seed int64, ver []int) *evolveStream {
	return &evolveStream{
		in: in, c: c, ver: ver,
		ops:     rand.New(rand.NewSource(seed)),
		seen:    map[tuple]bool{},
		sampler: rand.New(rand.NewSource(seed + 1)),
	}
}

func (s *evolveStream) next() *op {
	if s.ops.Float64() < evolveWriteShare {
		owned := s.in.owned[s.c]
		id := owned[s.ops.Intn(len(owned))]
		s.ver[id]++
		return putOp(s.in.ids[id], s.in.version(id, s.ver[id]), id, s.ver[id])
	}
	k := s.ops.Intn(evolvePairs)
	p := s.in.pairs[s.c][k]
	return s.in.readOp(s.c, k, s.ver[p[0]], s.ver[p[1]])
}

func (s *evolveStream) digest(r *reply, body []byte) {
	if r.op.write {
		r.body = bytes.Clone(body)
		return
	}
	r.sum = digest(body)
	key := tuple{r.op.item, r.op.va, r.op.vb}
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	// Reservoir sampling over the distinct tuples.
	if len(s.kept) < keptPerClient {
		s.kept = append(s.kept, keptRead{key, bytes.Clone(body)})
	} else if j := s.sampler.Intn(len(s.seen)); j < keptPerClient {
		s.kept[j] = keptRead{key, bytes.Clone(body)}
	}
}

// check verifies that PUT replies name their id, that all reads of one
// version tuple are byte-identical, and that each kept tuple's report
// equals a fresh MatchCompiled of those versions, ignoring the rematch
// breakdown a refreshed report carries.
func (w *evolveWorkload) check(rs []*reply) error {
	reads := map[tuple][]*reply{}
	for _, r := range rs {
		if r.op.write {
			var e serve.SchemaEntryResponse
			if json.Unmarshal(r.body, &e) != nil || e.ID != w.in.ids[r.op.item] || r.status != http.StatusOK && r.status != http.StatusCreated {
				r.failed = true
			}
			r.body = nil
			continue
		}
		key := tuple{r.op.item, r.op.va, r.op.vb}
		reads[key] = append(reads[key], r)
	}
	for _, group := range reads {
		for _, r := range group[1:] {
			if r.sum != group[0].sum {
				r.failed = true
			}
		}
	}
	eng, err := qmatch.NewEngine(serverOptions()...)
	if err != nil {
		return err
	}
	compiled := map[[2]int]*qmatch.CompiledSchema{}
	version := func(id, v int) (*qmatch.CompiledSchema, error) {
		if cs := compiled[[2]int{id, v}]; cs != nil {
			return cs, nil
		}
		cs, err := compileXSD(eng, w.in.version(id, v))
		compiled[[2]int{id, v}] = cs
		return cs, err
	}
	var want bytes.Buffer
	for _, s := range w.streams {
		for _, k := range s.kept {
			p := w.in.pair(k.key.item)
			src, err := version(p[0], k.key.va)
			if err != nil {
				return err
			}
			tgt, err := version(p[1], k.key.vb)
			if err != nil {
				return err
			}
			want.Reset()
			if err := eng.MatchCompiled(src, tgt).WriteJSON(&want); err != nil {
				return err
			}
			if !bytes.Equal(withoutRematch(k.body), want.Bytes()) {
				for _, r := range reads[k.key] {
					r.failed = true
				}
			}
		}
	}
	return nil
}

// withoutRematch re-serializes a report body with its rematch field
// dropped; an undecodable body comes back unchanged, so it mismatches.
func withoutRematch(body []byte) []byte {
	var rep qmatch.Report
	if json.Unmarshal(body, &rep) != nil {
		return body
	}
	rep.Rematch = nil
	var buf bytes.Buffer
	if rep.WriteJSON(&buf) != nil {
		return body
	}
	return buf.Bytes()
}
