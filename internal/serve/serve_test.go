package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qmatch"
	"qmatch/internal/synth"
	"qmatch/internal/xsd"
)

const poSourceXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:integer"/>
    <xs:element name="PurchaseDate" type="xs:date"/>
    <xs:element name="ShipTo" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element></xs:schema>`

const poTargetXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:integer"/>
    <xs:element name="Date" type="xs:date"/>
    <xs:element name="DeliverTo" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element></xs:schema>`

// newTestServer builds a Server + httptest.Server; the cleanup closes it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func matchBody(source, target string) MatchRequest {
	return MatchRequest{
		Source: &SchemaInput{Data: source},
		Target: &SchemaInput{Data: target},
	}
}

// The happy path must serve exactly the library wire format: the response
// body of /v1/match is byte-for-byte the Engine.Match report as
// Report.WriteJSON emits it, so testdata/wire_golden.json stays
// authoritative for the service too.
func TestMatchByteIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	src, err := qmatch.ParseSchemaString(poSourceXSD)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := qmatch.ParseSchemaString(poTargetXSD)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := eng.Match(src, tgt).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("service response differs from library wire output\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// Per-request overrides derive Engines from the server's Engine: a traced
// request attaches the pipeline spans, an algorithm override switches the
// matcher, and no override compiles an Engine of its own — every override
// match counts in /metrics, and ?trace=1 exports its trace.
func TestMatchTraceAndOverrides(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Trace on the default (hybrid) pipeline — the only one emitting
	// phase spans; the trace bit alone derives a tracing Engine.
	req := matchBody(poSourceXSD, poTargetXSD)
	req.Trace = true
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var report qmatch.Report
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Trace == nil || len(report.Trace.Spans) == 0 {
		t.Errorf("trace requested but absent: %+v", report.Trace)
	}

	lreq := matchBody(poSourceXSD, poTargetXSD)
	lreq.Algorithm = "linguistic"
	resp, body = post(t, ts.URL+"/v1/match", lreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var lingReport qmatch.Report
	if err := json.Unmarshal(body, &lingReport); err != nil {
		t.Fatal(err)
	}
	if lingReport.Algorithm != "linguistic" {
		t.Errorf("algorithm override ignored: %q", lingReport.Algorithm)
	}

	before := scrapeMetric(t, ts.URL, qmatch.MetricMatches)
	for i := 0; i < 10; i++ {
		treq := matchBody(poSourceXSD, poTargetXSD)
		threshold := 0.5 + float64(i)/20
		treq.Threshold = &threshold
		if resp, body := post(t, ts.URL+"/v1/match", treq); resp.StatusCode != http.StatusOK {
			t.Fatalf("threshold %v: status %d: %s", threshold, resp.StatusCode, body)
		}
	}
	if got := scrapeMetric(t, ts.URL, MetricEngineBuilds); got != 1 {
		t.Errorf("%s = %d after override requests, want 1", MetricEngineBuilds, got)
	}
	if got := scrapeMetric(t, ts.URL, qmatch.MetricMatches) - before; got != 10 {
		t.Errorf("ten override matches raised %s by %d, want 10", qmatch.MetricMatches, got)
	}

	threshold := 0.8
	treq := matchBody(poSourceXSD, poTargetXSD)
	treq.Threshold = &threshold
	resp, body = post(t, ts.URL+"/v1/match?trace=1", treq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override with ?trace=1: status %d: %s", resp.StatusCode, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil || len(events) == 0 {
		t.Fatalf("override with ?trace=1 is not a trace-event array: %v\n%s", err, body)
	}
}

// scrapeMetric reads one unlabeled sample from GET /metrics.
func scrapeMetric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", name, body)
	return 0
}

// A deadline that expires mid-match returns 504 and, when the request
// asked for tracing, carries the aborted pipeline's partial spans as the
// diagnostic body.
func TestDeadlineExceeded504PartialTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 200×600-element pair takes far longer than the 1 ms deadline, so
	// the match is cut short mid-pipeline.
	req := matchBody(xsd.Render(synth.Generate(synth.Config{Seed: 7, Elements: 200})),
		xsd.Render(synth.Generate(synth.Config{Seed: 8, Elements: 600})))
	req.Trace = true
	req.TimeoutMs = 1
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var eb struct {
		Error string             `json:"error"`
		Trace *qmatch.MatchTrace `json:"trace"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", eb.Error)
	}
	if eb.Trace == nil {
		t.Fatalf("504 body missing the partial trace: %s", body)
	}
	partial := false
	for _, sp := range eb.Trace.Spans {
		partial = partial || sp.Partial
	}
	if !partial {
		t.Errorf("no span marked partial in %+v", eb.Trace.Spans)
	}
}

// A deadline-less variant of the same request still succeeds (the clamp
// and default apply, not the tiny request timeout).
func TestMatchAllAndRankEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	all := MatchAllRequest{
		Sources: []SchemaInput{{Data: poSourceXSD}, {Data: poTargetXSD}},
		Targets: []SchemaInput{{Data: poTargetXSD}},
	}
	resp, body := post(t, ts.URL+"/v1/matchall", all)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matchall status %d: %s", resp.StatusCode, body)
	}
	var grid MatchAllResponse
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid.Reports) != 2 || len(grid.Reports[0]) != 1 {
		t.Fatalf("grid shape %dx?, want 2x1: %s", len(grid.Reports), body)
	}
	if grid.Reports[0][0].TreeQoM <= 0 {
		t.Errorf("empty report in grid: %+v", grid.Reports[0][0])
	}

	rank := RankRequest{
		Query:  &SchemaInput{Data: poSourceXSD},
		Corpus: []SchemaInput{{Data: poTargetXSD}, {Data: poSourceXSD}},
	}
	resp, body = post(t, ts.URL+"/v1/rank", rank)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank status %d: %s", resp.StatusCode, body)
	}
	var ranked RankResponse
	if err := json.Unmarshal(body, &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.Ranked) != 2 {
		t.Fatalf("ranked %d, want 2", len(ranked.Ranked))
	}
	// The self-match (corpus index 1) must outrank the PO variant.
	if ranked.Ranked[0].Index != 1 || ranked.Ranked[0].Score < ranked.Ranked[1].Score {
		t.Errorf("ranking order wrong: %+v", ranked.Ranked)
	}

	// The service rank must agree with the library's Engine.Rank.
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	query, _ := qmatch.ParseSchemaString(poSourceXSD)
	c0, _ := qmatch.ParseSchemaString(poTargetXSD)
	c1, _ := qmatch.ParseSchemaString(poSourceXSD)
	want := eng.Rank(query, []*qmatch.Schema{c0, c1})
	for i := range want {
		if ranked.Ranked[i].Index != want[i].Index || ranked.Ranked[i].Score != want[i].Score {
			t.Errorf("rank[%d] = {%d %v}, library {%d %v}", i,
				ranked.Ranked[i].Index, ranked.Ranked[i].Score, want[i].Index, want[i].Score)
		}
	}
}

// An oversized body is rejected with 413 before any parsing or matching.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := xsd.Render(synth.Generate(synth.Config{Seed: 3, Elements: 80}))
	resp, body := post(t, ts.URL+"/v1/match", matchBody(big, big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("unhelpful 413 body: %s", body)
	}
}

// When every slot is busy and the queue is full, new match requests are
// shed immediately with 429 and the shed counter advances.
func TestLimiterSaturation429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 0})
	// Hold the only slot, as a running match would.
	if err := s.limiter.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if shed, _ := s.reg.Value(MetricShed); shed != 1 {
		t.Errorf("shed counter %d, want 1", shed)
	}
	s.limiter.release()
	if resp, body := post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD)); resp.StatusCode != http.StatusOK {
		t.Errorf("status %d once the slot is free, want 200: %s", resp.StatusCode, body)
	}
}

// A client that disconnects from a large /v1/match frees its admission
// slot long before the match would have finished: the request context's
// cancellation reaches the running fill.
func TestClientDisconnectFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 0})
	body, err := json.Marshal(matchBody(xsd.Render(synth.Generate(synth.Config{Seed: 7, Elements: 400})),
		xsd.Render(synth.Generate(synth.Config{Seed: 8, Elements: 1500}))))
	if err != nil {
		t.Fatal(err)
	}
	// awaitSlot polls until the only slot is taken (or free) and returns
	// when it saw that happen.
	awaitSlot := func(taken bool) time.Time {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); (len(s.limiter.sem) == 1) != taken; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("slot taken=%v not reached in 30s", taken)
			}
		}
		return time.Now()
	}
	// send posts the pair under ctx and reports the request's error, if
	// any, on the returned channel.
	send := func(ctx context.Context) <-chan error {
		done := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(body))
			if err == nil {
				var resp *http.Response
				if resp, err = http.DefaultClient.Do(req); err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			done <- err
		}()
		return done
	}

	// One full match times the slot's hold on this server.
	done := send(context.Background())
	taken := awaitSlot(true)
	full := awaitSlot(false).Sub(taken)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done = send(ctx)
	awaitSlot(true)
	cancel()
	cut := time.Now()
	freed := awaitSlot(false).Sub(cut)
	<-done
	if freed > full/4 {
		t.Fatalf("slot freed %v after the disconnect, want under a quarter of the %v full match", freed, full)
	}
	t.Logf("slot freed %v after the disconnect; a full match holds it %v", freed, full)
}

// Malformed and invalid requests fail with 400s that name the problem;
// wrong methods and paths 405/404.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxPairs: 2})
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"bad json", "/v1/match", `{"source": `, http.StatusBadRequest},
		{"missing target", "/v1/match", fmt.Sprintf(`{"source":{"data":%q}}`, poSourceXSD), http.StatusBadRequest},
		{"bad format", "/v1/match", fmt.Sprintf(`{"source":{"data":%q,"format":"yaml"},"target":{"data":%q}}`, poSourceXSD, poTargetXSD), http.StatusBadRequest},
		{"bad algorithm", "/v1/match", fmt.Sprintf(`{"source":{"data":%q},"target":{"data":%q},"algorithm":"psychic"}`, poSourceXSD, poTargetXSD), http.StatusBadRequest},
		{"bad threshold", "/v1/match", fmt.Sprintf(`{"source":{"data":%q},"target":{"data":%q},"threshold":1.5}`, poSourceXSD, poTargetXSD), http.StatusBadRequest},
		{"unparsable schema", "/v1/match", `{"source":{"data":"not xml"},"target":{"data":"not xml"}}`, http.StatusBadRequest},
		{"grid too large", "/v1/matchall", fmt.Sprintf(`{"sources":[{"data":%q},{"data":%q},{"data":%q}],"targets":[{"data":%q}]}`, poSourceXSD, poSourceXSD, poSourceXSD, poTargetXSD), http.StatusBadRequest},
		{"empty corpus", "/v1/rank", fmt.Sprintf(`{"query":{"data":%q},"corpus":[]}`, poSourceXSD), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, body)
		}
		if !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: missing error envelope: %s", tc.name, body)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/match"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/match: %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /nope: %d, want 404", resp.StatusCode)
		}
	}
}

// DTD and instance-document inputs go through the corresponding parsers.
func TestAlternateSchemaFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MatchRequest{
		Source: &SchemaInput{Format: "dtd", Data: `<!ELEMENT PO (OrderNo, ShipTo)>
<!ELEMENT OrderNo (#PCDATA)>
<!ELEMENT ShipTo (#PCDATA)>`},
		Target: &SchemaInput{Format: "xml", Data: `<PurchaseOrder><OrderNo>17</OrderNo><DeliverTo>x</DeliverTo></PurchaseOrder>`},
	}
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var report qmatch.Report
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Correspondences) == 0 {
		t.Errorf("no correspondences across formats: %s", body)
	}
}

// Health flips to 503 on Drain and match requests are refused, while the
// metrics endpoint keeps serving.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining %d, want 503", resp.StatusCode)
	}
	mresp, body := post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD))
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("match while draining %d, want 503: %s", mresp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics while draining %d, want 200", resp.StatusCode)
	}
}

// The metrics endpoint exposes both registries: the Engine's match
// metrics and the HTTP layer's request metrics, in Prometheus text form.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"qmatch_matches_total 1",
		`qmatchd_http_requests_total{route="match",code="200"} 1`,
		`qmatchd_http_request_duration_seconds_bucket{route="match",le="+Inf"} 1`,
		"qmatchd_http_queue_depth",
		"qmatchd_http_shed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// The -race concurrent-clients hammer: many goroutines mixing every
// endpoint against one server. Run with `go test -race ./internal/serve`
// (CI does) to verify the shared Engine, the Engines traced requests
// derive from it, and the limiter under load.
func TestConcurrentClientsHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	const clients = 8
	const perClient = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch (c + i) % 4 {
				case 0:
					req := matchBody(poSourceXSD, poTargetXSD)
					req.Trace = c%2 == 0
					resp, body := post(t, ts.URL+"/v1/match", req)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("match: %d %s", resp.StatusCode, body)
					}
				case 1:
					resp, body := post(t, ts.URL+"/v1/matchall", MatchAllRequest{
						Sources: []SchemaInput{{Data: poSourceXSD}},
						Targets: []SchemaInput{{Data: poTargetXSD}},
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("matchall: %d %s", resp.StatusCode, body)
					}
				case 2:
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						errs <- err
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 3:
					resp, err := http.Get(ts.URL + "/healthz")
					if err != nil {
						errs <- err
						continue
					}
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkServeMatch measures the HTTP round trip of one /v1/match
// request end to end; compare with BenchmarkEngineMatchDirect for the
// service overhead figure in EXPERIMENTS.md.
func BenchmarkServeMatch(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(matchBody(poSourceXSD, poTargetXSD))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkEngineMatchDirect is the in-process baseline of the same match
// BenchmarkServeMatch performs over HTTP (parse included, as the service
// must parse request schemas too).
func BenchmarkEngineMatchDirect(b *testing.B) {
	eng, err := qmatch.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := qmatch.ParseSchemaString(poSourceXSD)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := qmatch.ParseSchemaString(poTargetXSD)
		if err != nil {
			b.Fatal(err)
		}
		if r := eng.Match(src, tgt); r.TreeQoM <= 0 {
			b.Fatal("bad report")
		}
	}
}
