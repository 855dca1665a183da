// Package serve implements qmatchd, the network-facing entry point of the
// matcher: an HTTP service exposing the Engine's match, batch-match and
// rank operations over untrusted schemas, hardened for long-running
// deployments — bounded request bodies, a concurrency limiter with
// load-shedding, per-request deadlines propagated into the pair-table
// fill, Prometheus metrics and structured access logs, and draining
// shutdown. See DESIGN.md §9 for the architecture.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"qmatch"
	"qmatch/internal/jobs"
	"qmatch/internal/obs"
	"qmatch/internal/registry"
)

// The service's HTTP metric names, maintained in the server's own
// registry (the Engine's match metrics live in the Engine registry; GET
// /metrics exposes both). Request counters and duration histograms carry
// route (and for counters, status code) labels.
const (
	MetricHTTPRequests = "qmatchd_http_requests_total"
	MetricHTTPDuration = "qmatchd_http_request_duration_seconds"
	MetricHTTPInflight = "qmatchd_http_inflight_requests"
	MetricQueueDepth   = "qmatchd_http_queue_depth"
	MetricShed         = "qmatchd_http_shed_total"
	MetricQuarantined  = "qmatchd_registry_quarantined_total"
)

// MetricEngineBuilds counts the Engines New compiles with NewEngine: one
// for the life of the server, since every per-request override derives
// from that Engine. It is kept only because benchmark/ scrapes it.
const MetricEngineBuilds = "qmatchd_engine_builds_total"

// Config tunes a Server. The zero value is usable: every limit falls back
// to the documented default.
type Config struct {
	// Options configure the server's Engine (algorithm, weights,
	// thesaurus, parallelism, ...); per-request overrides apply on top.
	Options []qmatch.Option
	// Logger receives structured access logs and Engine lifecycle
	// events. Nil disables logging.
	Logger *slog.Logger
	// MaxConcurrent bounds the matches running at once (default
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds the requests waiting for a match slot; beyond it
	// requests are shed with 429. Negative selects 2×MaxConcurrent;
	// 0 disables queueing (shed as soon as all slots are busy).
	MaxQueue int
	// MaxBodyBytes caps request bodies; larger requests fail with 413
	// (default 4 MiB).
	MaxBodyBytes int64
	// MaxPairs caps the schema-pair grid of one request —
	// len(sources)×len(targets) for /v1/matchall, len(corpus) for
	// /v1/rank (default 4096). Oversized grids fail with 400.
	MaxPairs int
	// DefaultTimeout bounds a request's matching work when the request
	// carries no timeoutMs (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 60s).
	MaxTimeout time.Duration
	// RegistryDir backs the schema registry with a directory of encoded
	// artifact blobs, reloaded on startup. Empty selects a memory-only
	// registry (entries vanish on restart).
	RegistryDir string
	// MaxSchemas bounds the registry; PUTs beyond it fail with 507
	// until entries are deleted (default 4096).
	MaxSchemas int
	// SlowRequests bounds the /debug/slow ring of slowest completed
	// requests kept with their full traces (default 32; negative
	// disables the ring).
	SlowRequests int
	// MaxJobs bounds terminal async jobs retained for polling; beyond it
	// the least-recently-polled completed job is evicted (default 64).
	MaxJobs int
	// JobWorkers bounds the async job shard workers (default
	// max(1, MaxConcurrent/2) — jobs are background work and must not
	// monopolize the admission slots interactive requests share).
	JobWorkers int
	// JobShardCost is the pair-table cost budget of one job shard, in
	// sourceNodes×targetNodes units (default 1<<20).
	JobShardCost int64
	// MaxJobCells caps the source×target grid of one submitted job
	// (default 65536). Oversized submissions fail with 400 — the
	// synchronous MaxPairs cap does not apply to jobs.
	MaxJobCells int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxSchemas < 1 {
		c.MaxSchemas = 4096
	}
	if c.SlowRequests == 0 {
		c.SlowRequests = 32
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 64
	}
	if c.JobWorkers < 1 {
		c.JobWorkers = c.MaxConcurrent / 2
		if c.JobWorkers < 1 {
			c.JobWorkers = 1
		}
	}
	if c.JobShardCost == 0 {
		c.JobShardCost = 1 << 20
	}
	if c.MaxJobCells < 1 {
		c.MaxJobCells = 65536
	}
	return c
}

// Server is the qmatchd HTTP service: one Engine (which owns the match
// metrics the /metrics endpoint exposes) and the Engines derived from it,
// the concurrency limiter, and the HTTP metrics registry. Construct with
// New, mount Handler() on an http.Server, call Drain before shutting the
// http.Server down.
type Server struct {
	cfg    Config
	logger *slog.Logger

	engine *qmatch.Engine // default engine; owns qmatch_* metrics
	// rematch is engine WithRematchState: the registry routes' Engine,
	// whose cached reports keep their pair tables for Engine.Rematch.
	rematch  *qmatch.Engine
	registry *registry.Registry
	jobs     *jobs.Manager

	reg      *obs.Registry // HTTP metrics
	limiter  *limiter
	inflight *obs.Gauge
	tracker  *requestTracker // debug plane: in-flight + slow tables

	draining atomic.Bool
}

// New builds a Server, compiling its Engine from cfg.Options. The Engine
// always collects match metrics and logs through cfg.Logger. It is the
// server's only NewEngine call: the registry routes' Engine and every
// per-request override Engine derive from it with Engine.With, sharing its
// thesaurus, name matchers and metrics registry.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Every log line — access logs, Engine match summaries, registry
	// lifecycle events — flows through the correlation handler, which
	// stamps trace_id/request_id from the log call's context. Lines logged
	// without a correlated context pass through unchanged.
	if cfg.Logger != nil {
		cfg.Logger = slog.New(obs.NewCorrelationHandler(cfg.Logger.Handler()))
	}
	s := &Server{
		cfg:     cfg,
		logger:  cfg.Logger,
		reg:     obs.NewRegistry(),
		tracker: newRequestTracker(cfg.SlowRequests),
	}
	eng, err := qmatch.NewEngine(append(cfg.Options[:len(cfg.Options):len(cfg.Options)],
		qmatch.WithObserver(qmatch.Observer{Logger: cfg.Logger, Metrics: true}))...)
	if err != nil {
		return nil, fmt.Errorf("serve: default engine: %w", err)
	}
	s.engine = eng
	s.reg.Counter(MetricEngineBuilds).Inc()
	// The registry's cached pair matches keep their tables, so a re-PUT
	// refreshes them incrementally (see handlePutSchema). Every other
	// route, job shards included, returns its tables to the arena.
	if s.rematch, err = eng.With(qmatch.WithRematchState()); err != nil {
		return nil, fmt.Errorf("serve: rematch engine: %w", err)
	}
	s.registry, err = registry.Open(cfg.RegistryDir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.reg.Counter(MetricQuarantined).Add(int64(len(s.registry.Quarantined())))
	if cfg.RegistryDir != "" && cfg.Logger != nil {
		for _, path := range s.registry.Quarantined() {
			cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "registry blob quarantined",
				slog.String("path", path))
		}
		cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "registry loaded",
			slog.String("dir", cfg.RegistryDir), slog.Int("schemas", s.registry.Len()))
	}
	s.inflight = s.reg.Gauge(MetricHTTPInflight)
	s.limiter = newLimiter(cfg.MaxConcurrent, cfg.MaxQueue,
		s.reg.Gauge(MetricQueueDepth), s.reg.Counter(MetricShed))
	// Process vitals for the debug plane ride in the HTTP registry, so one
	// /metrics scrape carries match, HTTP and runtime series.
	obs.RegisterRuntimeGauges(s.reg, "qmatchd")
	// The async job coordinator shares the admission limiter: every shard
	// waits for a match slot (without the shed bound — no client
	// connection is held open), so background jobs and interactive
	// requests draw from one concurrency budget.
	s.jobs = jobs.New(jobs.Config{
		Workers:   cfg.JobWorkers,
		ShardCost: cfg.JobShardCost,
		MaxJobs:   cfg.MaxJobs,
		Gate: func(ctx context.Context) (func(), error) {
			if err := s.limiter.wait(ctx); err != nil {
				return nil, err
			}
			return s.limiter.release, nil
		},
		Metrics: s.reg,
		Logger:  cfg.Logger,
	})
	return s, nil
}

// Close releases the server's background resources: the job coordinator's
// workers stop and every active job is cancelled. Call it after the HTTP
// server has shut down; a Server is not usable afterwards.
func (s *Server) Close() { s.jobs.Close() }

// Engine returns the server's default Engine (the one /metrics scrapes).
func (s *Server) Engine() *qmatch.Engine { return s.engine }

// Drain moves the server into shutdown: /healthz turns 503 so load
// balancers stop routing here, and new matching requests are refused with
// 503, while requests already past admission keep running — pair with
// http.Server.Shutdown, which waits for those in-flight handlers.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) && s.logger != nil {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "draining")
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// route is one entry of the service's versioned route table: the HTTP
// method and pattern it answers (Go 1.22 ServeMux syntax, wildcards
// allowed), the short name that labels its metrics and access-log lines,
// and the handler. Every route passes through the same instrument wrapper
// — body cap, in-flight gauge, duration histogram, status counter, access
// log — so adding an endpoint (a future /v1/jobs, say) is one line here.
type route struct {
	method  string
	pattern string
	name    string
	handler http.HandlerFunc
}

// routes returns the service's API surface, the single registration point
// Handler builds the mux from:
//
//	POST   /v1/match         one schema pair     → Report (library wire format)
//	POST   /v1/matchall      sources×targets     → {"reports": [[Report...]...]}
//	POST   /v1/rank          query vs corpus     → {"ranked": [...]}
//	PUT    /v1/schemas/{id}  register schema     → registry entry (201/200);
//	                         re-PUTs refresh cached matches incrementally
//	GET    /v1/schemas/{id}  inspect entry       → registry entry + XSD
//	DELETE /v1/schemas/{id}  unregister          → 204
//	GET    /v1/schemas       list registry       → {"schemas": [...]}
//	POST   /v1/schemas/{id}/match/{other}
//	                         match two registered schemas → Report (cached)
//	POST   /v1/search        query vs registry   → {"results": [...]}
//	POST   /v1/jobs          submit an async MatchAll job → 202 + job id
//	GET    /v1/jobs          list retained jobs  → {"jobs": [...]}
//	GET    /v1/jobs/{id}     poll job status     → progress (+ per-shard
//	                         detail with ?shards=1, trace with ?trace=1)
//	GET    /v1/jobs/{id}/results
//	                         stream completed cells as NDJSON, resumable
//	                         with ?after=N
//	DELETE /v1/jobs/{id}     cancel an active job / forget a finished one
//	GET    /healthz          liveness            → 200 "ok" / 503 "draining"
//	GET    /metrics          Prometheus text: Engine + HTTP registries
func (s *Server) routes() []route {
	return []route{
		{http.MethodPost, "/v1/match", "match", s.handleMatch},
		{http.MethodPost, "/v1/matchall", "matchall", s.handleMatchAll},
		{http.MethodPost, "/v1/rank", "rank", s.handleRank},
		{http.MethodPut, "/v1/schemas/{id}", "schema_put", s.handlePutSchema},
		{http.MethodGet, "/v1/schemas/{id}", "schema_get", s.handleGetSchema},
		{http.MethodDelete, "/v1/schemas/{id}", "schema_delete", s.handleDeleteSchema},
		{http.MethodGet, "/v1/schemas", "schema_list", s.handleListSchemas},
		{http.MethodPost, "/v1/schemas/{id}/match/{other}", "schema_match", s.handleSchemaMatch},
		{http.MethodPost, "/v1/search", "search", s.handleSearch},
		{http.MethodPost, "/v1/jobs", "job_submit", s.handleSubmitJob},
		{http.MethodGet, "/v1/jobs", "job_list", s.handleListJobs},
		{http.MethodGet, "/v1/jobs/{id}", "job_status", s.handleJobStatus},
		{http.MethodGet, "/v1/jobs/{id}/results", "job_results", s.handleJobResults},
		{http.MethodDelete, "/v1/jobs/{id}", "job_cancel", s.handleCancelJob},
		{http.MethodGet, "/healthz", "healthz", s.handleHealthz},
		{http.MethodGet, "/metrics", "metrics", s.handleMetrics},
	}
}

// Handler builds the service's HTTP handler from the route table; see
// routes for the endpoint list.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.method+" "+rt.pattern, s.instrument(rt.name, rt.handler))
	}
	return mux
}

// statusWriter captures the response status for metrics and access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher — the NDJSON job-result stream flushes after every batch.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// activeRequestKey carries the request's debug-plane record through
// context so handlers (the ?trace=1 export) can reach it.
type activeRequestKey struct{}

func activeRequest(ctx context.Context) *ActiveRequest {
	ar, _ := ctx.Value(activeRequestKey{}).(*ActiveRequest)
	return ar
}

// instrument wraps a route handler with the request body cap, in-flight
// gauge, per-route duration histogram, per-route/status counter, the
// structured access log, and the correlation layer: the W3C traceparent of
// the request (generated when the client sent none) becomes the trace ID
// echoed in X-Request-Id, stamped on every log line, threaded through
// context into the Engine, and attached to the request-level trace whose
// stitched form /debug/slow serves.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	dur := s.reg.Histogram(obs.LabeledName(MetricHTTPDuration, "route", route), nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		// Correlation: adopt the client's trace ID when the traceparent is
		// well-formed, mint one otherwise. The request ID identifies this
		// hop alone and doubles as the server's span ID in the traceparent
		// echoed to the client.
		traceID, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID = obs.NewTraceID()
		}
		requestID := obs.NewSpanID()
		w.Header().Set("X-Request-Id", traceID)
		w.Header().Set("traceparent", obs.FormatTraceparent(traceID, requestID))

		// The request-level trace: a "request" root span that engine match
		// traces are grafted under (via the context trace sink), plus the
		// queue-wait span limited() adds. The per-request cost is a few
		// small allocations; match work dominates every route where it
		// matters.
		reqTrace := obs.NewTrace()
		reqTrace.SetID(traceID)
		cell := &obs.PhaseCell{}
		reqTrace.SetPhaseCell(cell)
		reqSpan := reqTrace.StartSpan(obs.PhaseRequest)
		reqTrace.SetParent(reqSpan)
		ar := s.tracker.start(route, r.Method, r.RemoteAddr, traceID, requestID, cell)

		ctx := obs.ContextWithIDs(r.Context(), traceID, requestID)
		ctx = obs.ContextWithPhaseCell(ctx, cell)
		ctx = obs.ContextWithTrace(ctx, reqTrace)
		ctx = obs.ContextWithTraceSink(ctx, func(mt *obs.MatchTrace) {
			// Place the engine trace on the request timeline: its clock
			// started TotalNs before this sink call.
			ar.attach(mt, reqTrace.SinceStartNs()-mt.TotalNs)
		})
		ctx = context.WithValue(ctx, activeRequestKey{}, ar)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.inflight.Add(1)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		s.inflight.Add(-1)
		reqSpan.End()
		s.tracker.finish(ar, sw.status, elapsed, ar.stitch(reqTrace.Finish(), reqSpan.ID()))
		dur.Observe(elapsed.Seconds())
		s.reg.Counter(obs.LabeledName(MetricHTTPRequests,
			"route", route, "code", strconv.Itoa(sw.status))).Inc()
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed),
				slog.String("remote", r.RemoteAddr))
		}
	})
}

// timeout resolves the effective deadline of one request.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// limited runs fn under the server's admission control: refused while
// draining (503), shed when the limiter saturates (429), 504 when the
// deadline expires while queued. fn receives the deadline context.
func (s *Server) limited(w http.ResponseWriter, r *http.Request, timeoutMs int64, fn func(ctx context.Context)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMs))
	defer cancel()
	// The admission wait gets its own span on the request trace, so a
	// /debug/slow entry distinguishes "queued behind other matches" from
	// "the match itself was slow".
	qs := obs.TraceFromContext(ctx).StartSpan(obs.PhaseQueue)
	err := s.limiter.acquire(ctx)
	qs.End()
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "match capacity saturated, retry later")
			return
		}
		writeError(w, http.StatusGatewayTimeout, "deadline expired while queued for a match slot")
		return
	}
	defer s.limiter.release()
	fn(ctx)
}

// engineFor resolves the Engine serving one request's overrides: the
// server's Engine when there are none, otherwise one derived from it with
// Engine.With. A trace override adds tracing to the Engine's metrics and
// logging. Invalid overrides (unknown algorithm, out-of-range threshold,
// bad weights) surface as the derivation error, which handlers map to 400.
func (s *Server) engineFor(o matchOptions) (*qmatch.Engine, error) {
	var opts []qmatch.Option
	if o.Algorithm != "" {
		alg, err := qmatch.ParseAlgorithm(o.Algorithm)
		if err != nil {
			return nil, err
		}
		opts = append(opts, qmatch.WithAlgorithm(alg))
	}
	if o.Threshold != nil {
		opts = append(opts, qmatch.WithSelectionThreshold(*o.Threshold))
	}
	if w := o.Weights; w != nil {
		opts = append(opts, qmatch.WithWeights(qmatch.Weights{
			Label: w.Label, Properties: w.Properties, Level: w.Level, Children: w.Children,
		}))
	}
	if o.Trace {
		opts = append(opts, qmatch.WithObserver(qmatch.Observer{Logger: s.logger, Metrics: true, Tracing: true}))
	}
	if len(opts) == 0 {
		return s.engine, nil
	}
	eng, err := s.engine.With(opts...)
	if err != nil {
		return nil, fmt.Errorf("invalid match options: %w", err)
	}
	return eng, nil
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if !decode(w, r, &req) {
		return
	}
	src, err := req.Source.parse("source")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tgt, err := req.Target.parse("target")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, err := s.engineFor(req.matchOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// ?trace=1 switches the response to the Chrome trace-event export of
	// the match's pipeline trace (loadable in Perfetto) instead of the
	// Report body — the service-side equivalent of qmatch -trace-out.
	wantEvents := r.URL.Query().Get("trace") == "1"
	s.limited(w, r, req.TimeoutMs, func(ctx context.Context) {
		report, err := eng.MatchContext(ctx, src, tgt)
		if err != nil {
			s.writeDeadline(w, report, err)
			return
		}
		if wantEvents {
			// Every Engine the server runs collects metrics, so every
			// match has recorded the trace exported here.
			w.Header().Set("Content-Type", "application/json")
			_ = activeRequest(ctx).lastEngineTrace().WriteTraceEvents(w)
			return
		}
		// Serve the report through the library serializer so the body
		// is byte-identical to Engine.Match wire output.
		w.Header().Set("Content-Type", "application/json")
		_ = report.WriteJSON(w)
	})
}

func (s *Server) handleMatchAll(w http.ResponseWriter, r *http.Request) {
	var req MatchAllRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		writeError(w, http.StatusBadRequest, "need at least one source and one target schema")
		return
	}
	if pairs := len(req.Sources) * len(req.Targets); pairs > s.cfg.MaxPairs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("grid of %d pairs exceeds the %d-pair limit", pairs, s.cfg.MaxPairs))
		return
	}
	sources, err := parseAll(req.Sources, "sources")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	targets, err := parseAll(req.Targets, "targets")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, err := s.engineFor(req.matchOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.limited(w, r, req.TimeoutMs, func(ctx context.Context) {
		reports, err := eng.MatchAll(ctx, sources, targets)
		if err != nil {
			s.writeDeadline(w, nil, err)
			return
		}
		writeJSON(w, http.StatusOK, MatchAllResponse{Reports: reports})
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Corpus) == 0 {
		writeError(w, http.StatusBadRequest, "need at least one corpus schema")
		return
	}
	if len(req.Corpus) > s.cfg.MaxPairs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("corpus of %d schemas exceeds the %d-pair limit", len(req.Corpus), s.cfg.MaxPairs))
		return
	}
	query, err := req.Query.parse("query")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	corpus, err := parseAll(req.Corpus, "corpus")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, err := s.engineFor(req.matchOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.limited(w, r, req.TimeoutMs, func(ctx context.Context) {
		// The request deadline reaches into in-flight fills.
		out, err := eng.RankContext(ctx, query, corpus)
		if err != nil {
			s.writeDeadline(w, nil, err)
			return
		}
		ranked := make([]RankedResult, len(out))
		for i, rk := range out {
			ranked[i] = RankedResult{Index: rk.Index, Score: rk.Score, Correspondences: rk.Correspondences}
		}
		writeJSON(w, http.StatusOK, RankResponse{Ranked: ranked})
	})
}

// writeDeadline serves the 504 of an expired match. When the aborted
// match produced a partial report with a trace (Observer.Tracing engines),
// the trace rides along as the timeout diagnostic: its cut-short spans are
// marked partial and count the work done before the abort.
func (s *Server) writeDeadline(w http.ResponseWriter, report *qmatch.Report, err error) {
	body := errorBody{Error: fmt.Sprintf("match aborted: %v", err)}
	if report != nil && report.Trace != nil {
		body.Trace = report.Trace
	}
	writeJSON(w, http.StatusGatewayTimeout, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics writes the Engine registry (match counters, durations,
// per-phase time) followed by the server's HTTP registry, both in the
// Prometheus text format. Every Engine the server derives shares the
// Engine registry, so override, registry and job matches all count here.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.engine.WriteMetrics(w); err != nil {
		return
	}
	_ = s.reg.WritePrometheus(w)
}
