package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/serve"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// Every generated input draws from its own stream of the run seed. Schema
// sizes are fixed by position in a deck, never drawn from the seed, so the
// per-request cost has the same distribution on every seed; the seed varies
// labels, structure and mutations only.

// subSeed derives an independent generator seed for one input.
func subSeed(seed int64, tag string, parts ...int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	for _, p := range parts {
		fmt.Fprintf(h, "/%d", p)
	}
	return int64(h.Sum64() &^ (1 << 63))
}

// ladder spreads n sizes evenly over [lo, hi] and returns the i-th.
func ladder(i, n, lo, hi int) int {
	if n <= 1 {
		return lo
	}
	return lo + (hi-lo)*i/(n-1)
}

func synthTree(seed int64, elements int) *xmltree.Node {
	return synth.Generate(synth.Config{Seed: seed, Elements: elements})
}

func derive(base *xmltree.Node, seed int64, p float64) *xmltree.Node {
	v, _ := synth.Derive(base, synth.Uniform(seed, p))
	return v
}

func xsdOf(n *xmltree.Node) string { return qmatch.FromTree(n).XSD() }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// override is one per-request matcher override of match-small.
type override struct {
	threshold *float64
	weights   *qmatch.Weights
}

func f64(v float64) *float64 { return &v }

// overrides are the four fixed threshold/weights combinations one
// match-small request in eight carries; each selects a pooled override
// Engine on the server.
var overrides = []override{
	{threshold: f64(0.6)},
	{threshold: f64(0.9)},
	{weights: &qmatch.Weights{Label: 0.4, Properties: 0.2, Level: 0.2, Children: 0.2}},
	{threshold: f64(0.7), weights: &qmatch.Weights{Label: 0.3, Properties: 0.3, Level: 0.1, Children: 0.3}},
}

// options returns the Engine options the override adds to the server's.
func (o override) options() []qmatch.Option {
	var opts []qmatch.Option
	if o.threshold != nil {
		opts = append(opts, qmatch.WithSelectionThreshold(*o.threshold))
	}
	if o.weights != nil {
		opts = append(opts, qmatch.WithWeights(*o.weights))
	}
	return opts
}

// matchItem is one POST /v1/match request of a match deck.
type matchItem struct {
	name     string
	src, tgt serve.SchemaInput
	override int // index into overrides, -1 for the server defaults
	op       *op
}

func newMatchItem(i int, name string, src, tgt serve.SchemaInput, ov int) *matchItem {
	req := serve.MatchRequest{Source: &src, Target: &tgt}
	if ov >= 0 {
		req.Threshold = overrides[ov].threshold
		if w := overrides[ov].weights; w != nil {
			req.Weights = &serve.WeightsInput{Label: w.Label, Properties: w.Properties, Level: w.Level, Children: w.Children}
		}
	}
	return &matchItem{
		name: name, src: src, tgt: tgt, override: ov,
		op: &op{method: http.MethodPost, path: "/v1/match", body: mustJSON(req), item: i},
	}
}

func xsdInput(n *xmltree.Node) serve.SchemaInput { return serve.SchemaInput{Data: xsdOf(n)} }

// loadPayload reads the schema of one of the repository's registry PUT
// examples, testdata/registry_put_po_<format>.json.
func loadPayload(repo, format string) (serve.SchemaInput, error) {
	b, err := os.ReadFile(filepath.Join(repo, "testdata", "registry_put_po_"+format+".json"))
	if err != nil {
		return serve.SchemaInput{}, err
	}
	var req serve.PutSchemaRequest
	if err := json.Unmarshal(b, &req); err != nil || req.Schema == nil {
		return serve.SchemaInput{}, fmt.Errorf("%s payload: %v", format, err)
	}
	return *req.Schema, nil
}

// matchSmallDeck is 32 requests: PO, Book, DCMD and XBench, the JSON
// Schema and DDL examples each against the PO XSD, and 26 synthetic pairs
// of 20–100 elements against their Uniform(0.3) variants. Every eighth
// request carries one of the four overrides.
func matchSmallDeck(seed int64, repo string) ([]*matchItem, error) {
	type pair struct {
		name     string
		src, tgt serve.SchemaInput
	}
	var pairs []pair
	for _, p := range []dataset.Pair{dataset.POPair(), dataset.BookPair(), dataset.DCMDPair(), dataset.XBenchPair()} {
		pairs = append(pairs, pair{p.Name, xsdInput(p.Source), xsdInput(p.Target)})
	}
	po := xsdInput(dataset.PO1())
	for _, format := range []string{"jsonschema", "ddl"} {
		in, err := loadPayload(repo, format)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{format, in, po})
	}
	const synthetic = 26
	for i := 0; i < synthetic; i++ {
		base := synthTree(subSeed(seed, "match-small", i), ladder(i, synthetic, 20, 100))
		variant := derive(base, subSeed(seed, "match-small-variant", i), 0.3)
		pairs = append(pairs, pair{fmt.Sprintf("synth-%02d", i), xsdInput(base), xsdInput(variant)})
	}
	deck := make([]*matchItem, len(pairs))
	for i, p := range pairs {
		ov := -1
		if i%8 == 7 {
			ov = (i / 8) % len(overrides)
		}
		deck[i] = newMatchItem(i, p.name, p.src, p.tgt, ov)
	}
	return deck, nil
}

// matchLargeDeck is 12 synthetic pairs of about 80,000 pair-table cells
// each (80–180 elements against 1000–444), half of them in each direction
// like PIR→PDB and PDB→PIR. One pair fits the label cache; the deck, with
// about half a million distinct label pairs, does not.
func matchLargeDeck(seed int64) []*matchItem {
	const pairs, cells = 12, 80000
	deck := make([]*matchItem, pairs)
	for i := range deck {
		small := ladder(i, pairs, 80, 180)
		a := synthTree(subSeed(seed, "match-large-small", i), small)
		b := synthTree(subSeed(seed, "match-large-large", i), cells/small)
		if i%2 == 1 {
			a, b = b, a
		}
		deck[i] = newMatchItem(i, fmt.Sprintf("large-%02d", i), xsdInput(a), xsdInput(b), -1)
	}
	return deck
}

func putOp(id, xsd string, item, version int) *op {
	return &op{
		write: true, method: http.MethodPut, path: "/v1/schemas/" + id,
		body: mustJSON(serve.PutSchemaRequest{Schema: &serve.SchemaInput{Data: xsd}}),
		item: item, va: version,
	}
}

// searchK is the prefilter candidate bound of every search.
const searchK = 16

// searchInputs is the registry-search corpus, 32 synthetic families × 8
// Uniform(0.3) variants of 20–100 elements, and 64 held-out query
// variants, two per family.
type searchInputs struct {
	ids     []string // corpus ids, sorted
	corpus  []string // XSD per id
	queries []string // XSD per query
	puts    []*op
	deck    []*op
}

func newSearchInputs(seed int64) *searchInputs {
	const families, variants, queriesPer = 32, 8, 2
	in := &searchInputs{}
	for f := 0; f < families; f++ {
		base := synthTree(subSeed(seed, "search-family", f), ladder(f, families, 20, 100))
		for v := 0; v < variants; v++ {
			id := fmt.Sprintf("f%02d-v%d", f, v)
			xsd := xsdOf(derive(base, subSeed(seed, "search-variant", f, v), 0.3))
			in.puts = append(in.puts, putOp(id, xsd, len(in.ids), 0))
			in.ids = append(in.ids, id)
			in.corpus = append(in.corpus, xsd)
		}
		for q := 0; q < queriesPer; q++ {
			xsd := xsdOf(derive(base, subSeed(seed, "search-query", f, q), 0.3))
			in.deck = append(in.deck, &op{
				method: http.MethodPost, path: "/v1/search", item: len(in.queries),
				body: mustJSON(serve.SearchRequest{Query: &serve.SchemaInput{Data: xsd}, K: searchK}),
			})
			in.queries = append(in.queries, xsd)
		}
	}
	return in
}

// The registry-evolve corpus: 8 synthetic families × 8 Uniform(0.3)
// variants of 20–100 elements. Client c owns the 32 ids of the families of
// parity c, and 128 ordered pairs among them.
const (
	evolveFamilies    = 8
	evolveVariants    = 8
	evolvePairs       = 128
	evolveWriteShare  = 0.1
	evolveVersionProb = 0.05
)

type evolveInputs struct {
	seed  int64
	ids   []string
	base  []*xmltree.Node // version 0 of every id
	puts  []*op
	owned [2][]int    // id indices per client
	pairs [2][][2]int // (source, target) id indices per client
}

func newEvolveInputs(seed int64) *evolveInputs {
	in := &evolveInputs{seed: seed}
	for f := 0; f < evolveFamilies; f++ {
		family := synthTree(subSeed(seed, "evolve-family", f), ladder(f, evolveFamilies, 20, 100))
		for v := 0; v < evolveVariants; v++ {
			i := len(in.ids)
			id := fmt.Sprintf("e%d-v%d", f, v)
			tree := derive(family, subSeed(seed, "evolve-variant", f, v), 0.3)
			in.ids = append(in.ids, id)
			in.base = append(in.base, tree)
			in.puts = append(in.puts, putOp(id, xsdOf(tree), i, 0))
			in.owned[f%2] = append(in.owned[f%2], i)
		}
	}
	// Every id is the source of the pairs to its next four ids and the
	// target of the pairs from its previous four, mostly within its family.
	// The graph is fixed so a re-PUT rematches the same number of cached
	// pairs on every seed.
	for c, owned := range in.owned {
		for k, a := range owned {
			for d := 1; d <= evolvePairs/len(owned); d++ {
				in.pairs[c] = append(in.pairs[c], [2]int{a, owned[(k+d)%len(owned)]})
			}
		}
	}
	return in
}

// version renders version v of id: version 0 is the registered variant,
// every later one a Uniform(0.05) mutation of it seeded by (seed, id, v).
func (in *evolveInputs) version(id, v int) string {
	if v == 0 {
		return xsdOf(in.base[id])
	}
	return xsdOf(derive(in.base[id], subSeed(in.seed, "evolve-version", id, v), evolveVersionProb))
}

// readOp is the cached pair match of client c's k-th pair at the given
// versions.
func (in *evolveInputs) readOp(c, k, va, vb int) *op {
	p := in.pairs[c][k]
	return &op{
		method: http.MethodPost, path: "/v1/schemas/" + in.ids[p[0]] + "/match/" + in.ids[p[1]],
		item: c*evolvePairs + k, va: va, vb: vb,
	}
}

// pair returns the id indices of a global pair index.
func (in *evolveInputs) pair(item int) [2]int {
	return in.pairs[item/evolvePairs][item%evolvePairs]
}
