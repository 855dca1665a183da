package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"qmatch/internal/jobs"
)

// submitJob posts one job and returns its id, failing on a non-202.
func submitJob(t *testing.T, url string, req JobSubmitRequest) string {
	t.Helper()
	resp, body := post(t, url+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var js JobStatusResponse
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if js.ID == "" || js.Cells == 0 {
		t.Fatalf("submit response missing id/cells: %s", body)
	}
	return js.ID
}

// pollJob fetches the job's status with per-shard detail.
func pollJob(t *testing.T, url, id string) JobStatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "?shards=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js JobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// awaitJob polls the status endpoint until the job is terminal.
func awaitJob(t *testing.T, url, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		js := pollJob(t, url, id)
		if js.Status.Terminal() {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 10s: %+v", id, js.Progress)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamResults drains GET /v1/jobs/{id}/results?after=N into report lines
// and the trailer.
func streamResults(t *testing.T, url, id string, after int) ([]JobResultLine, *JobResultTrailer) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?after=%d", url, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	var lines []JobResultLine
	var trailer *JobResultTrailer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		if strings.Contains(sc.Text(), `"done"`) {
			trailer = &JobResultTrailer{}
			if err := json.Unmarshal(sc.Bytes(), trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
			continue
		}
		var line JobResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("result line: %v", err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, trailer
}

func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The acceptance pin of the job subsystem: a streamed job over a 2×2 grid
// is byte-identical, report for report, to the synchronous /v1/matchall
// response over the same grid.
func TestJobResultsByteIdenticalToSyncMatchAll(t *testing.T) {
	// JobShardCost 1 forces one cell per shard, so the stream is stitched
	// from four shards' results.
	_, ts := newTestServer(t, Config{JobShardCost: 1})

	sources := []SchemaInput{{Data: poSourceXSD}, {Data: poTargetXSD}}
	targets := []SchemaInput{{Data: poTargetXSD}, {Data: poSourceXSD}}
	req := JobSubmitRequest{}
	for _, in := range sources {
		in := in
		req.Sources = append(req.Sources, JobSchemaRef{Schema: &in})
	}
	for _, in := range targets {
		in := in
		req.Targets = append(req.Targets, JobSchemaRef{Schema: &in})
	}
	id := submitJob(t, ts.URL, req)
	final := awaitJob(t, ts.URL, id)
	if final.Status != "completed" {
		t.Fatalf("job %s: %s (%s)", id, final.Status, final.Error)
	}
	if final.ShardsTotal != 4 || final.ShardsDone != 4 {
		t.Fatalf("shards %d/%d, want 4/4", final.ShardsDone, final.ShardsTotal)
	}

	lines, trailer := streamResults(t, ts.URL, id, 0)
	if len(lines) != 4 {
		t.Fatalf("streamed %d cells, want 4", len(lines))
	}
	if trailer == nil || !trailer.Done || trailer.Status != "completed" || trailer.Cells != 4 {
		t.Fatalf("trailer = %+v", trailer)
	}

	// The synchronous grid over the same schemas.
	resp, body := post(t, ts.URL+"/v1/matchall", MatchAllRequest{Sources: sources, Targets: targets})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matchall: status %d: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Reports [][]json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		want := compact(t, envelope.Reports[line.Source][line.Target])
		got := compact(t, line.Report)
		if got != want {
			t.Errorf("cell %d (%d,%d): job report differs from sync matchall\njob:  %s\nsync: %s",
				line.Cell, line.Source, line.Target, got, want)
		}
	}
}

// A cut stream resumes with ?after=N without re-sending or skipping cells.
func TestJobResultsResume(t *testing.T) {
	_, ts := newTestServer(t, Config{JobShardCost: 1})
	req := JobSubmitRequest{
		Sources: []JobSchemaRef{{Schema: &SchemaInput{Data: poSourceXSD}}},
		Targets: []JobSchemaRef{
			{Schema: &SchemaInput{Data: poTargetXSD}},
			{Schema: &SchemaInput{Data: poSourceXSD}},
			{Schema: &SchemaInput{Data: poTargetXSD}},
		},
	}
	id := submitJob(t, ts.URL, req)
	awaitJob(t, ts.URL, id)

	full, _ := streamResults(t, ts.URL, id, 0)
	if len(full) != 3 {
		t.Fatalf("full stream has %d cells, want 3", len(full))
	}
	resumed, trailer := streamResults(t, ts.URL, id, 2)
	if len(resumed) != 1 || resumed[0].Cell != 2 {
		t.Fatalf("resumed stream = %+v, want exactly cell 2", resumed)
	}
	if trailer == nil || trailer.Status != "completed" {
		t.Fatalf("resumed trailer = %+v", trailer)
	}
	if compact(t, resumed[0].Report) != compact(t, full[2].Report) {
		t.Error("resumed cell 2 differs from the full stream's cell 2")
	}

	// Past-the-end cursor yields only the trailer; junk cursor is 400.
	none, trailer := streamResults(t, ts.URL, id, 99)
	if len(none) != 0 || trailer == nil {
		t.Fatalf("past-end stream = %d lines, trailer %+v", len(none), trailer)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk ?after: status %d, want 400", resp.StatusCode)
	}
}

// DELETE on an active job cancels it mid-shard; the running shard is
// abandoned and the stream closes with a cancelled trailer.
func TestJobCancelMidShardOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, JobShardCost: 1, JobWorkers: 1})
	// Hold the only match slot, so the job's shard blocks at admission.
	if err := s.limiter.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(s.limiter.release) }
	defer release()

	id := submitJob(t, ts.URL, JobSubmitRequest{
		Sources: []JobSchemaRef{{Schema: &SchemaInput{Data: poSourceXSD}}},
		Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if js := pollJob(t, ts.URL, id); js.Shards[0].Status == jobs.ShardRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job's shard never started")
		}
	}
	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var js JobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || js.Status != "cancelled" {
		t.Fatalf("cancel: status %d job %s", resp.StatusCode, js.Status)
	}
	release()

	lines, trailer := streamResults(t, ts.URL, id, 0)
	if len(lines) != 0 || trailer == nil || trailer.Status != "cancelled" {
		t.Fatalf("cancelled stream: %d lines, trailer %+v", len(lines), trailer)
	}
	// A second DELETE forgets the terminal job; polls turn 404.
	resp, err = http.DefaultClient.Do(delReq.Clone(delReq.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forget: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll after forget: status %d, want 404", resp.StatusCode)
	}
}

// Registry-backed jobs resolve stored artifacts; submission errors map to
// the documented statuses.
func TestJobSubmitValidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobCells: 2})

	cases := []struct {
		name string
		req  JobSubmitRequest
		code int
	}{
		{"empty grid", JobSubmitRequest{}, http.StatusBadRequest},
		{"unknown registry id", JobSubmitRequest{
			Sources: []JobSchemaRef{{ID: "ghost"}},
			Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
		}, http.StatusNotFound},
		{"both id and schema", JobSubmitRequest{
			Sources: []JobSchemaRef{{ID: "x", Schema: &SchemaInput{Data: poSourceXSD}}},
			Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
		}, http.StatusBadRequest},
		{"neither id nor schema", JobSubmitRequest{
			Sources: []JobSchemaRef{{}},
			Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
		}, http.StatusBadRequest},
		{"grid over cell cap", JobSubmitRequest{
			Sources: []JobSchemaRef{{Schema: &SchemaInput{Data: poSourceXSD}}},
			Targets: []JobSchemaRef{
				{Schema: &SchemaInput{Data: poTargetXSD}},
				{Schema: &SchemaInput{Data: poTargetXSD}},
				{Schema: &SchemaInput{Data: poTargetXSD}},
			},
		}, http.StatusBadRequest},
		{"malformed schema", JobSubmitRequest{
			Sources: []JobSchemaRef{{Schema: &SchemaInput{Data: "<not-xsd>"}}},
			Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/jobs", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
	}
}

// A registry-backed job over stored artifacts completes and reports the
// registry ids in its progress; submissions are refused while draining.
func TestJobRegistryRefsAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putBody := func(id, doc string) {
		b, _ := json.Marshal(PutSchemaRequest{Schema: &SchemaInput{Data: doc}})
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/schemas/"+id, bytes.NewReader(b))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: status %d", id, resp.StatusCode)
		}
	}
	putBody("po-src", poSourceXSD)
	putBody("po-tgt", poTargetXSD)

	id := submitJob(t, ts.URL, JobSubmitRequest{
		Sources: []JobSchemaRef{{ID: "po-src"}},
		Targets: []JobSchemaRef{{ID: "po-tgt"}},
	})
	final := awaitJob(t, ts.URL, id)
	if final.Status != "completed" {
		t.Fatalf("registry job: %s (%s)", final.Status, final.Error)
	}
	if len(final.SourceIDs) != 1 || final.SourceIDs[0] != "po-src" ||
		len(final.TargetIDs) != 1 || final.TargetIDs[0] != "po-tgt" {
		t.Fatalf("progress ids = %v / %v", final.SourceIDs, final.TargetIDs)
	}

	s.Drain()
	resp, body := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Sources: []JobSchemaRef{{ID: "po-src"}},
		Targets: []JobSchemaRef{{ID: "po-tgt"}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// The bounded store forgets the least-recently-polled completed job first.
func TestJobStoreEvictionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 2})
	req := JobSubmitRequest{
		Sources: []JobSchemaRef{{Schema: &SchemaInput{Data: poSourceXSD}}},
		Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id := submitJob(t, ts.URL, req)
		awaitJob(t, ts.URL, id)
		ids = append(ids, id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job poll: status %d, want 404", resp.StatusCode)
	}
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list JobListResponse
	err = json.NewDecoder(listResp.Body).Decode(&list)
	listResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}
	for _, p := range list.Jobs {
		if p.ID == ids[0] {
			t.Fatalf("evicted job %s still listed", ids[0])
		}
	}
}

// Concurrent submit/poll/stream traffic across jobs stays consistent
// (run under -race in CI).
func TestConcurrentJobsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{JobShardCost: 1, JobWorkers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := JobSubmitRequest{
				Sources: []JobSchemaRef{
					{Schema: &SchemaInput{Data: poSourceXSD}},
					{Schema: &SchemaInput{Data: poTargetXSD}},
				},
				Targets: []JobSchemaRef{{Schema: &SchemaInput{Data: poTargetXSD}}},
			}
			b, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			var js JobStatusResponse
			err = json.NewDecoder(resp.Body).Decode(&js)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			// Follow the live stream to the trailer — this exercises the
			// Updated/ResultsFrom wait loop against concurrent shard acks.
			streamResp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "/results")
			if err != nil {
				errs <- err
				return
			}
			defer streamResp.Body.Close()
			sc := bufio.NewScanner(streamResp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			cells, sawTrailer := 0, false
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"done"`) {
					sawTrailer = true
					break
				}
				cells++
			}
			if err := sc.Err(); err != nil {
				errs <- err
				return
			}
			if cells != 2 || !sawTrailer {
				errs <- fmt.Errorf("job %s streamed %d cells (trailer %v), want 2", js.ID, cells, sawTrailer)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
