package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"qmatch"
	"qmatch/internal/obs"
	"qmatch/internal/serve"
)

// clients is the closed loop's client count: one per core of the 2-core
// machine the benchmark was sized on. Each client sends its next request
// only after the previous reply, over at most two keep-alive connections.
const clients = 2

// Config fixes one run of one workload.
type Config struct {
	Seed int64
	// Window is the length of the timed window.
	Window time.Duration
	// Trace adds the traced replay and the per-layer metrics.
	Trace bool
	// Repo is the repository root, where the JSON Schema and DDL example
	// payloads live.
	Repo string
	// SetupReps and TraceOps, when positive, replace the workload's fixed
	// set-up repetitions and traced sample size; tests shrink them.
	SetupReps, TraceOps int
}

// spec is one workload as the command knows it.
type spec struct {
	name string
	why  string
	// setupReps is how many times set-up runs; setup_s is the median. A
	// match set-up is a fraction of a millisecond, so it repeats often.
	setupReps int
	// traceOps is the traced replay's sample size.
	traceOps int
	// p99 reports latency_p99_ms: only workloads with well over 1000 reads
	// in a window support it.
	p99   bool
	build func(cfg Config) (workload, error)
}

var specs = []spec{
	{
		name:      "match-small",
		why:       "small schema pairs on POST /v1/match: per-request fixed costs (decode, parse, override engines, encode, HTTP) dominate",
		setupReps: 101, traceOps: 200, p99: true,
		build: func(cfg Config) (workload, error) {
			deck, err := matchSmallDeck(cfg.Seed, cfg.Repo)
			if err != nil {
				return nil, err
			}
			return &matchWorkload{seed: cfg.Seed, deck: deck}, nil
		},
	},
	{
		name:      "match-large",
		why:       "large schema pairs on POST /v1/match whose label pairs overflow the label cache: kernel, fill and selection dominate",
		setupReps: 101, traceOps: 6,
		build: func(cfg Config) (workload, error) {
			return &matchWorkload{seed: cfg.Seed, deck: matchLargeDeck(cfg.Seed)}, nil
		},
	},
	{
		name:      "registry-search",
		why:       "POST /v1/search over a 256-schema disk registry: the prefilter scan and RankCompiled dominate, no corpus parse",
		setupReps: 9, traceOps: 32,
		build: func(cfg Config) (workload, error) {
			return &searchWorkload{seed: cfg.Seed, in: newSearchInputs(cfg.Seed)}, nil
		},
	},
	{
		name:      "registry-evolve",
		why:       "cached registry pair matches beside re-PUTs that rematch them: writes and reads on one registry layer",
		setupReps: 9, traceOps: 200, p99: true,
		build: func(cfg Config) (workload, error) {
			return &evolveWorkload{in: newEvolveInputs(cfg.Seed)}, nil
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// snapshot is the counter state read just before and just after the timed
// window.
type snapshot struct {
	hits, misses, evictions int64
	builds                  int64
	gcCPU, totalCPU         float64
	allocBytes              uint64
}

func takeSnapshot(srv *server, hc *http.Client) (snapshot, error) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	builds, err := scrapeCounter(hc, srv.url, serve.MetricEngineBuilds)
	return snapshot{
		hits:       srv.engineCounter(qmatch.MetricCacheHits),
		misses:     srv.engineCounter(qmatch.MetricCacheMisses),
		evictions:  srv.engineCounter(qmatch.MetricCacheEvictions),
		builds:     builds,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}, err
}

// heapSampler tracks the peak of the live-and-unswept heap object bytes,
// sampled every 10 ms.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
	samples    int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.samples++
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes and the sample
// count.
func (h *heapSampler) finish() (uint64, int) {
	close(h.stop)
	<-h.done
	return h.peak, h.samples
}

// perClient runs fn for every client concurrently and collects the replies.
func perClient(fn func(c int) []reply) [clients][]reply {
	var out [clients][]reply
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return out
}

// send runs one op and digests its reply.
func send(cl *loadClient, s stream, o *op, origin time.Time) reply {
	r := reply{op: o, start: time.Since(origin)}
	status, hdr, body := cl.do(o)
	r.end = time.Since(origin)
	r.status = status
	if r.failed = status/100 != 2; !r.failed {
		r.hit = hdr.Get("X-Qmatchd-Cache") == "hit"
		s.digest(&r, body)
	}
	return r
}

// percentile returns the q-quantile of sorted by nearest rank, and whether
// at least ten samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		return math.NaN(), false
	}
	return sorted[rank-1], n-rank >= 10
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runWorkload runs one workload once: input generation, timed set-up,
// warm-up, the timed window, the output check against expected outputs
// computed after the window, and, with cfg.Trace, the traced replay. It
// returns the spans of the replay.
func runWorkload(cfg Config, sp spec) (*result, *obs.MatchTrace, error) {
	w, err := sp.build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: inputs: %w", sp.name, err)
	}
	tmp, err := os.MkdirTemp("", "qmatch-bench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	var srv *server
	var setups []float64
	for i := 0; i < orDefault(cfg.SetupReps, sp.setupReps); i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		srv, err = w.setup(filepath.Join(tmp, fmt.Sprintf("registry-%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", sp.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	tr := newTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var streams [clients]stream
	var loaders [clients]*loadClient
	for c := range streams {
		streams[c] = w.stream(c)
		loaders[c] = &loadClient{http: hc, base: srv.url}
	}

	warm := perClient(func(c int) []reply {
		var out []reply
		for _, o := range w.warmup(c) {
			out = append(out, send(loaders[c], streams[c], o, time.Now()))
		}
		return out
	})

	runtime.GC()
	before, err := takeSnapshot(srv, hc)
	if err != nil {
		return nil, nil, err
	}
	heap := startHeapSampler()
	origin := time.Now()
	window := perClient(func(c int) []reply {
		var out []reply
		for time.Since(origin) < cfg.Window {
			out = append(out, send(loaders[c], streams[c], streams[c].next(), origin))
		}
		return out
	})
	peak, heapSamples := heap.finish()
	after, err := takeSnapshot(srv, hc)
	if err != nil {
		return nil, nil, err
	}

	var all, timed []*reply
	for c := 0; c < clients; c++ {
		for i := range warm[c] {
			all = append(all, &warm[c][i])
		}
		for i := range window[c] {
			all = append(all, &window[c][i])
			timed = append(timed, &window[c][i])
		}
	}
	delivered := make([]*reply, 0, len(all))
	for _, r := range all {
		if !r.failed {
			delivered = append(delivered, r)
		}
	}
	if err := w.check(delivered); err != nil {
		return nil, nil, fmt.Errorf("%s: check: %w", sp.name, err)
	}

	res := &result{workload: sp.name, attempted: len(all)}
	for _, r := range all {
		if r.failed {
			res.failed++
		}
	}
	windowMetrics(res, sp, cfg.Window, timed, setups, peak, heapSamples, before, after)

	var spans *obs.MatchTrace
	if cfg.Trace {
		rp := newReplayer(loaders[0], tmp)
		if err := w.replay(rp, orDefault(cfg.TraceOps, sp.traceOps)); err != nil {
			return nil, nil, fmt.Errorf("%s: traced replay: %w", sp.name, err)
		}
		spans = rp.finish(res)
	}
	return res, spans, nil
}

// windowMetrics derives the end-to-end metrics, and the per-layer metrics
// counted over the window, from the timed replies.
func windowMetrics(res *result, sp spec, window time.Duration, timed []*reply, setups []float64,
	peak uint64, heapSamples int, before, after snapshot) {
	var reads, writes []float64
	completed, failed := 0, 0
	hits := 0
	for _, r := range timed {
		if r.failed {
			failed++
		}
		if r.end > window || r.failed {
			continue
		}
		completed++
		ms := float64(r.end-r.start) / 1e6
		if r.op.write {
			writes = append(writes, ms)
			continue
		}
		reads = append(reads, ms)
		if r.hit {
			hits++
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)

	res.addE2E("throughput_rps", "req/s", float64(completed)/window.Seconds(), completed)
	res.addPercentile("latency_p50_ms", reads, 0.50)
	res.addPercentile("latency_p90_ms", reads, 0.90)
	if sp.p99 {
		res.addPercentile("latency_p99_ms", reads, 0.99)
	}
	if len(writes) > 0 {
		res.addPercentile("write_latency_p50_ms", writes, 0.50)
		res.addPercentile("write_latency_p90_ms", writes, 0.90)
	}
	res.addE2E("error_rate", "ratio", float64(failed)/float64(max(len(timed), 1)), len(timed))
	res.addE2E("heap_peak_mb", "MiB", float64(peak)/(1<<20), heapSamples)
	res.addE2E("setup_s", "s", median(setups), len(setups))

	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	res.addLayer("lingo.cache_hit_ratio", "ratio", ratio(float64(after.hits-before.hits), float64(lookups)), int(lookups))
	res.addLayer("lingo.evictions_per_op", "count", ratio(float64(after.evictions-before.evictions), float64(completed)), completed)
	res.addLayer("runtime.gc_cpu_share", "ratio", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), completed)
	res.addLayer("runtime.alloc_kb_per_op", "KiB", ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(completed)), completed)
	res.addLayer("serve.engine_builds", "count", float64(after.builds-before.builds), completed)
	if len(writes) > 0 {
		res.addLayer("registry.hit_ratio", "ratio", ratio(float64(hits), float64(len(reads))), len(reads))
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
