package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qmatch"
	"qmatch/internal/serve"
)

// serverOptions are the matcher options cmd/qmatchd builds from its flag
// defaults (-algorithm hybrid, nothing else set).
func serverOptions() []qmatch.Option {
	return []qmatch.Option{qmatch.WithAlgorithm(qmatch.Hybrid)}
}

// server is one in-process qmatchd: serve.New with the cmd/qmatchd flag
// defaults, text logs written to io.Discard, listening on a loopback port.
type server struct {
	s    *serve.Server
	http *http.Server
	url  string
	done chan error
}

// startServer builds and starts qmatchd. An empty registryDir selects the
// memory registry, as qmatchd does without -registry.
func startServer(registryDir string) (*server, error) {
	s, err := serve.New(serve.Config{
		Options:        serverOptions(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		MaxQueue:       -1,
		MaxBodyBytes:   4 << 20,
		MaxPairs:       4096,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		RegistryDir:    registryDir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	srv := &server{
		s:    s,
		http: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { srv.done <- srv.http.Serve(ln) }()
	return srv, nil
}

// stop drains and shuts the server down the way qmatchd does on SIGTERM,
// and returns once the serving goroutine has exited.
func (srv *server) stop() error {
	srv.s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := srv.http.Shutdown(ctx)
	if serveErr := <-srv.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	srv.s.Close()
	return err
}

// engineCounter reads one counter of the serving Engine's registry.
func (srv *server) engineCounter(name string) int64 {
	v, _ := srv.s.Engine().MetricValue(name)
	return v
}

// op is one request of a workload.
type op struct {
	write  bool // counted as a write (registry-evolve re-PUTs)
	method string
	path   string
	body   []byte
	item   int // deck index, or registry-evolve pair or id index
	// va and vb are the schema versions a registry-evolve op reads or
	// writes (vb is unused by writes).
	va, vb int
}

// reply is what a client keeps of one response. Bodies are digested inside
// the timed window and compared with the expected outputs after it.
type reply struct {
	op         *op
	status     int // 0 on a transport error
	hit        bool
	start, end time.Duration // since the window opened
	sum        uint64        // digest of the checked part of the body
	body       []byte        // kept only where the check needs the bytes
	// failed marks a transport error, a non-2xx status or a wrong output.
	failed bool
}

// loadClient is one closed-loop client: it sends its next request only
// after the previous reply has been read in full.
type loadClient struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

// newTransport returns the shared client transport: keep-alive, at most
// two connections to the server.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
}

// do sends one op and returns the status, headers and body. The body is
// valid until the next call.
func (c *loadClient) do(o *op) (int, http.Header, []byte) {
	req, err := http.NewRequest(o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, nil
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes()
}

// scrapeCounter reads one unlabeled sample from GET /metrics.
func scrapeCounter(hc *http.Client, base, name string) (int64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}
