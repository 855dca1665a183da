// Command qmatchd serves the matcher over HTTP: a long-running, hardened
// service around a shared qmatch.Engine for deployments that match many
// schema pairs from many clients.
//
// Usage:
//
//	qmatchd [flags]
//
// Endpoints:
//
//	POST   /v1/match        match one schema pair; response is the Report
//	                        wire format, byte-identical to the qmatch CLI's
//	                        -format json output
//	POST   /v1/matchall     match a sources×targets grid in one request
//	POST   /v1/rank         rank a corpus against a query schema
//	PUT    /v1/schemas/{id} compile and register a schema in the registry
//	GET    /v1/schemas/{id} inspect one registered schema
//	DELETE /v1/schemas/{id} unregister a schema
//	GET    /v1/schemas      list the registry
//	POST   /v1/search       rank the registered corpus against a query
//	                        schema (top-K prefilter + full QoM)
//	POST   /v1/jobs         submit an async batch-match job (sharded
//	                        MatchAll over inline or registered schemas)
//	GET    /v1/jobs         list retained jobs
//	GET    /v1/jobs/{id}    poll job progress (?shards=1, ?trace=1)
//	GET    /v1/jobs/{id}/results  stream completed cells as NDJSON (?after=N)
//	DELETE /v1/jobs/{id}    cancel an active job / forget a finished one
//	GET    /healthz         liveness (503 while draining)
//	GET    /metrics         Prometheus text: Engine match metrics + HTTP metrics
//
// Flags:
//
//	-addr HOST:PORT                           listen address (default 127.0.0.1:8764)
//	-algorithm hybrid|linguistic|structural|cupid   default matcher (default hybrid)
//	-threshold FLOAT                          selection threshold (default per algorithm)
//	-weights WL,WP,WH,WC                      hybrid axis weights
//	-parallel N                               worker bound (0 = GOMAXPROCS)
//	-config FILE                              JSON matcher configuration file
//	-thesaurus FILE                           merge custom relations (TSV)
//	-max-concurrent N                         matches running at once (0 = GOMAXPROCS)
//	-max-queue N                              requests queued for a slot (-1 = 2×max-concurrent)
//	-max-body BYTES                           request body cap (default 4194304)
//	-max-pairs N                              per-request schema-pair cap (default 4096)
//	-timeout DUR                              default per-request deadline (default 10s)
//	-max-timeout DUR                          clamp on request-supplied deadlines (default 60s)
//	-registry DIR                             persist registered schemas as artifact blobs
//	                                          in DIR (default: in-memory only)
//	-max-schemas N                            registry capacity (default 4096)
//	-debug-addr HOST:PORT                     admin debug plane: net/http/pprof, expvar,
//	                                          /debug/requests (in-flight table) and
//	                                          /debug/slow (slowest requests with traces);
//	                                          keep it loopback-only (default: disabled)
//	-slow-requests N                          /debug/slow ring size (default 32)
//	-max-jobs N                               completed async jobs retained for
//	                                          polling (default 64, LRU-evicted)
//	-job-workers N                            async job shard workers
//	                                          (default max(1, max-concurrent/2))
//	-job-shard-cost N                         pair-table cost budget of one job
//	                                          shard in srcNodes×tgtNodes units
//	                                          (default 1048576)
//	-max-job-cells N                          per-job source×target grid cap
//	                                          (default 65536)
//	-drain DUR                                shutdown drain budget (default 15s)
//	-log text|json                            access/lifecycle log format (default text)
//	-quiet                                    disable logging
//
// qmatchd shuts down gracefully on SIGINT/SIGTERM: /healthz flips to 503,
// new match requests are refused, and in-flight matches drain within the
// -drain budget before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qmatch"
	"qmatch/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "qmatchd:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled (signal) or the
// listener fails; out receives the human-readable lifecycle lines (the
// structured logs go there too). It returns nil on a clean drained
// shutdown.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qmatchd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8764", "listen address")
	algorithm := fs.String("algorithm", "hybrid", "default matcher: hybrid, linguistic, structural or cupid")
	threshold := fs.Float64("threshold", -1, "selection threshold override")
	weights := fs.String("weights", "", "hybrid axis weights as WL,WP,WH,WC")
	parallel := fs.Int("parallel", 0, "worker bound (0 = GOMAXPROCS)")
	configPath := fs.String("config", "", "JSON matcher configuration file")
	thesaurusPath := fs.String("thesaurus", "", "file with custom thesaurus relations")
	maxConcurrent := fs.Int("max-concurrent", 0, "matches running at once (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", -1, "requests queued for a match slot (-1 = 2x max-concurrent)")
	maxBody := fs.Int64("max-body", 4<<20, "request body size cap in bytes")
	maxPairs := fs.Int("max-pairs", 4096, "per-request schema-pair cap")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "clamp on request-supplied deadlines")
	registryDir := fs.String("registry", "", "persist registered schemas as artifact blobs in this directory")
	maxSchemas := fs.Int("max-schemas", 0, "registry capacity (0 = default 4096)")
	debugAddr := fs.String("debug-addr", "", "listen address of the admin debug plane (pprof, expvar, /debug/requests, /debug/slow); empty disables it")
	slowRequests := fs.Int("slow-requests", 0, "slowest completed requests kept with full traces for /debug/slow (0 = default 32, negative disables)")
	maxJobs := fs.Int("max-jobs", 0, "completed async jobs retained for polling (0 = default 64)")
	jobWorkers := fs.Int("job-workers", 0, "async job shard workers (0 = half of max-concurrent)")
	jobShardCost := fs.Int64("job-shard-cost", 0, "pair-table cost budget of one job shard (0 = default 1048576)")
	maxJobCells := fs.Int("max-job-cells", 0, "per-job source x target grid cap (0 = default 65536)")
	drain := fs.Duration("drain", 15*time.Second, "shutdown drain budget")
	logFormat := fs.String("log", "text", "log format: text or json")
	quiet := fs.Bool("quiet", false, "disable logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	logger, err := buildLogger(out, *logFormat, *quiet)
	if err != nil {
		return err
	}
	opts, err := buildOptions(*configPath, *algorithm, *threshold, *weights, *parallel, *thesaurusPath)
	if err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Options:        opts,
		Logger:         logger,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		MaxBodyBytes:   *maxBody,
		MaxPairs:       *maxPairs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RegistryDir:    *registryDir,
		MaxSchemas:     *maxSchemas,
		SlowRequests:   *slowRequests,
		MaxJobs:        *maxJobs,
		JobWorkers:     *jobWorkers,
		JobShardCost:   *jobShardCost,
		MaxJobCells:    *maxJobCells,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(out, "qmatchd listening on http://%s\n", ln.Addr())

	// The debug plane listens separately (typically loopback-only): pprof
	// and the request tables are operator surfaces, not API surface.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{
			Handler:           s.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		fmt.Fprintf(out, "qmatchd debug plane on http://%s\n", dln.Addr())
		go func() { _ = debugSrv.Serve(dln) }()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: stop advertising healthy, refuse new matches, then let
	// http.Server.Shutdown wait for in-flight handlers within the budget.
	s.Drain()
	fmt.Fprintf(out, "qmatchd draining (budget %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "qmatchd stopped")
	return nil
}

func buildLogger(out io.Writer, format string, quiet bool) (*slog.Logger, error) {
	if quiet {
		return nil, nil
	}
	hopts := &slog.HandlerOptions{Level: slog.LevelInfo}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(out, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(out, hopts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// buildOptions resolves the matcher configuration the same way the qmatch
// CLI does: config file first, explicit flags override it.
func buildOptions(configPath, algorithm string, threshold float64, weights string, parallel int, thesaurusPath string) ([]qmatch.Option, error) {
	var opts []qmatch.Option
	if configPath != "" {
		fromFile, err := qmatch.LoadOptionsFile(configPath)
		if err != nil {
			return nil, err
		}
		opts = append(opts, fromFile...)
	}
	alg, err := qmatch.ParseAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	opts = append(opts, qmatch.WithAlgorithm(alg))
	if threshold >= 0 {
		opts = append(opts, qmatch.WithSelectionThreshold(threshold))
	}
	if weights != "" {
		w, err := parseWeights(weights)
		if err != nil {
			return nil, err
		}
		opts = append(opts, qmatch.WithWeights(w))
	}
	if parallel != 0 {
		opts = append(opts, qmatch.WithParallelism(parallel))
	}
	if thesaurusPath != "" {
		th, err := qmatch.LoadThesaurusFile(thesaurusPath)
		if err != nil {
			return nil, err
		}
		opts = append(opts, qmatch.WithThesaurus(th))
	}
	return opts, nil
}

func parseWeights(s string) (qmatch.Weights, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return qmatch.Weights{}, fmt.Errorf("weights must be WL,WP,WH,WC, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return qmatch.Weights{}, fmt.Errorf("invalid weight %q", p)
		}
		vals[i] = v
	}
	return qmatch.Weights{Label: vals[0], Properties: vals[1], Level: vals[2], Children: vals[3]}, nil
}
