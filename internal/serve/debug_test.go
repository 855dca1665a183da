package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const clientTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// postWithHeaders is post with extra request headers (the traceparent
// tests need to set the incoming W3C header).
func postWithHeaders(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := readAll(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// A client traceparent is adopted: the same trace ID comes back in
// X-Request-Id and in the response traceparent (with the server's own
// span ID, not the client's).
func TestTraceparentAdopted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postWithHeaders(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD),
		map[string]string{"traceparent": clientTraceparent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != clientTraceID {
		t.Fatalf("X-Request-Id = %q, want client trace ID %q", got, clientTraceID)
	}
	tp := resp.Header.Get("traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[1] != clientTraceID {
		t.Fatalf("response traceparent %q does not carry the client trace ID", tp)
	}
	if parts[2] == "00f067aa0ba902b7" {
		t.Fatalf("response traceparent reused the client span ID: %q", tp)
	}
}

// Without (or with a malformed) traceparent the server mints a fresh
// 32-hex trace ID.
func TestTraceparentGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, hdr := range []map[string]string{nil, {"traceparent": "garbage"}} {
		resp, _ := postWithHeaders(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD), hdr)
		id := resp.Header.Get("X-Request-Id")
		if len(id) != 32 || id == clientTraceID {
			t.Fatalf("headers %v: X-Request-Id = %q, want generated 32-hex ID", hdr, id)
		}
	}
}

// Every log line emitted while serving a request carries the request's
// trace_id and request_id — the correlation handler injects them from the
// context the handlers log with.
func TestLogLinesCarryTraceID(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postWithHeaders(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD),
		map[string]string{"traceparent": clientTraceparent})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no log lines emitted")
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["trace_id"] != clientTraceID {
			t.Fatalf("log line missing trace_id=%s:\n%s", clientTraceID, line)
		}
		if id, _ := rec["request_id"].(string); len(id) != 16 {
			t.Fatalf("log line missing 16-hex request_id:\n%s", line)
		}
	}
}

// /debug/requests lists a request while it is in flight, with its route,
// trace ID and age. A request queued for a match slot is in flight too.
func TestDebugRequestsInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ds := httptest.NewServer(s.DebugHandler())
	defer ds.Close()

	// Hold the only slot, so the request below waits in the queue.
	if err := s.limiter.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postWithHeaders(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD),
			map[string]string{"traceparent": clientTraceparent})
	}()

	var table struct {
		Requests []inflightEntry `json:"requests"`
	}
	var found *inflightEntry
	var body []byte
	for deadline := time.Now().Add(10 * time.Second); found == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight request not listed:\n%s", body)
		}
		resp, err := http.Get(ds.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = readAll(t, resp)
		resp.Body.Close()
		table.Requests = nil
		if err := json.Unmarshal(body, &table); err != nil {
			t.Fatalf("/debug/requests is not JSON: %v\n%s", err, body)
		}
		for i := range table.Requests {
			if table.Requests[i].TraceID == clientTraceID {
				found = &table.Requests[i]
			}
		}
	}
	s.limiter.release()
	<-done
	if found.Route != "match" || found.Method != http.MethodPost {
		t.Fatalf("in-flight row = %+v", *found)
	}
	if found.AgeMs < 0 {
		t.Fatalf("negative age: %+v", *found)
	}

	// After completion the table drains.
	resp, err := http.Get(ds.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(t, resp)
	resp.Body.Close()
	table.Requests = nil
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatal(err)
	}
	for _, e := range table.Requests {
		if e.TraceID == clientTraceID {
			t.Fatalf("completed request still in-flight:\n%s", body)
		}
	}
}

// /debug/slow recalls a completed request by trace ID with its full
// hierarchical trace — request root, queue wait, and the grafted engine
// match spans — and exports it as Chrome trace events with &format=events.
func TestDebugSlowRecall(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ds := httptest.NewServer(s.DebugHandler())
	defer ds.Close()

	postWithHeaders(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD),
		map[string]string{"traceparent": clientTraceparent})

	// The ring lists the completed request.
	resp, err := http.Get(ds.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	resp.Body.Close()
	var ring struct {
		Slow []SlowRequest `json:"slow"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, body)
	}
	var hit bool
	for _, e := range ring.Slow {
		if e.TraceID == clientTraceID {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("completed request absent from the slow ring:\n%s", body)
	}

	// Recall by ID: the stitched trace has the request root, the queue
	// span and the grafted match pipeline.
	resp, err = http.Get(ds.URL + "/debug/slow?id=" + clientTraceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(t, resp)
	resp.Body.Close()
	var entry SlowRequest
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.TraceID != clientTraceID || entry.Status != http.StatusOK {
		t.Fatalf("recalled entry = %+v", entry)
	}
	if entry.Trace == nil {
		t.Fatal("recalled entry has no trace")
	}
	phases := make(map[string]int)
	parents := make(map[string]int64)
	ids := make(map[string]int64)
	for _, sp := range entry.Trace.Spans {
		phases[string(sp.Phase)]++
		parents[string(sp.Phase)] = sp.ParentID
		ids[string(sp.Phase)] = sp.ID
	}
	for _, want := range []string{"request", "queue", "match", "intern", "pairtable", "select"} {
		if phases[want] == 0 {
			t.Fatalf("stitched trace missing %q span (got %v)", want, phases)
		}
	}
	if parents["request"] != 0 {
		t.Fatalf("request span is not the root: %v", parents)
	}
	if parents["queue"] != ids["request"] || parents["match"] != ids["request"] {
		t.Fatalf("queue/match not under the request root: parents=%v ids=%v", parents, ids)
	}
	if parents["intern"] != ids["match"] {
		t.Fatalf("intern not under match: parents=%v ids=%v", parents, ids)
	}
	// Each inline schema's parse is a span under the request root, sized
	// on its side of the match.
	var srcParses, tgtParses int
	for _, sp := range entry.Trace.Spans {
		if sp.Phase != "parse" {
			continue
		}
		if sp.ParentID != ids["request"] {
			t.Fatalf("parse span not under the request root: %+v", sp)
		}
		switch {
		case sp.SrcNodes > 0 && sp.TgtNodes == 0:
			srcParses++
		case sp.TgtNodes > 0 && sp.SrcNodes == 0:
			tgtParses++
		}
	}
	if phases["parse"] != 2 || srcParses != 1 || tgtParses != 1 {
		t.Fatalf("want one source and one target parse span, got %d spans (%d source, %d target)",
			phases["parse"], srcParses, tgtParses)
	}

	// &format=events exports the same trace as a Chrome trace-event array.
	resp, err = http.Get(ds.URL + "/debug/slow?id=" + clientTraceID + "&format=events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(t, resp)
	resp.Body.Close()
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("format=events is not a JSON array: %v\n%s", err, body)
	}
	if len(events) < len(entry.Trace.Spans) {
		t.Fatalf("%d events for %d spans", len(events), len(entry.Trace.Spans))
	}

	// Unknown trace IDs 404.
	resp, err = http.Get(ds.URL + "/debug/slow?id=ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID: status %d, want 404", resp.StatusCode)
	}
}

// SlowRequests: 0 keeps the default ring, negative disables retention.
func TestSlowRingDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{SlowRequests: -1})
	ds := httptest.NewServer(s.DebugHandler())
	defer ds.Close()
	post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetXSD))
	resp, err := http.Get(ds.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	resp.Body.Close()
	var ring struct {
		Slow []SlowRequest `json:"slow"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Slow) != 0 {
		t.Fatalf("disabled ring retained %d entries", len(ring.Slow))
	}
}

// /v1/match?trace=1 switches the response to the match's trace-event
// export: a JSON array loadable in Perfetto, correlated to the request.
func TestMatchTraceEventsParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postWithHeaders(t, ts.URL+"/v1/match?trace=1", matchBody(poSourceXSD, poTargetXSD),
		map[string]string{"traceparent": clientTraceparent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != clientTraceID {
		t.Fatalf("X-Request-Id = %q", got)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("?trace=1 body is not a trace-event array: %v\n%s", err, body)
	}
	var sawMatch bool
	for _, ev := range events {
		if name, _ := ev["name"].(string); name == "match" {
			if ph, _ := ev["ph"].(string); ph == "X" {
				sawMatch = true
			}
		}
	}
	if !sawMatch {
		t.Fatalf("no complete match event in export:\n%s", body)
	}
}

// The debug plane serves the standard Go profiling endpoints and expvar
// with both metric registries published.
func TestDebugPprofAndVars(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ds := httptest.NewServer(s.DebugHandler())
	defer ds.Close()

	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/vars",
	} {
		resp, err := http.Get(ds.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}

	resp, err := http.Get(ds.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{"qmatch", "qmatchd"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("/debug/vars missing %q registry", key)
		}
	}
}

// Runtime gauges from RegisterRuntimeGauges land in the service metrics.
func TestRuntimeGaugesExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	resp.Body.Close()
	text := string(body)
	for _, metric := range []string{"qmatchd_goroutines", "qmatchd_heap_alloc_bytes", "qmatchd_uptime_seconds", "qmatch_build_info"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("/metrics missing %s:\n%s", metric, text)
		}
	}
}
