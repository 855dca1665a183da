package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/registry"
)

// do sends a JSON request with an arbitrary method and decodes the reply.
func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

func putSchema(t *testing.T, base, id, xsd string) (*http.Response, []byte) {
	t.Helper()
	return do(t, http.MethodPut, base+"/v1/schemas/"+id,
		PutSchemaRequest{Schema: &SchemaInput{Data: xsd}})
}

func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// PUT: 201 on create, 200 on replace, entry metadata in the body.
	resp, body := putSchema(t, ts.URL, "po-target", poTargetXSD)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var entry SchemaEntryResponse
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.ID != "po-target" || entry.Name != "PurchaseOrder" || entry.Size != 4 || len(entry.ContentID) != 64 {
		t.Errorf("unexpected entry: %+v", entry)
	}
	if resp, _ := putSchema(t, ts.URL, "po-target", poTargetXSD); resp.StatusCode != http.StatusOK {
		t.Errorf("replace: status %d, want 200", resp.StatusCode)
	}

	// Invalid ids and bodies are 400s.
	if resp, _ := putSchema(t, ts.URL, ".hidden", poTargetXSD); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := putSchema(t, ts.URL, "broken", "<not-xsd>"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad schema: status %d, want 400", resp.StatusCode)
	}

	// GET returns metadata plus the rendered XSD; missing ids are 404.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/schemas/po-target", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.XSD == "" || entry.ContentID == "" {
		t.Errorf("get response missing xsd or content id: %+v", entry)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/schemas/absent", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get absent: status %d, want 404", resp.StatusCode)
	}

	// List shows the corpus sorted by id.
	if resp, _ := putSchema(t, ts.URL, "a-first", poSourceXSD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second put failed: %d", resp.StatusCode)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/schemas", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list SchemaListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Schemas) != 2 || list.Schemas[0].ID != "a-first" || list.Schemas[1].ID != "po-target" {
		t.Errorf("list = %+v, want a-first, po-target", list.Schemas)
	}

	// DELETE: 204 then 404.
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/schemas/a-first", nil); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/schemas/a-first", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete absent: status %d, want 404", resp.StatusCode)
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for id, doc := range map[string]string{
		"po-target": poTargetXSD,
		"unrelated": `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
		  <xs:element name="Zoo"><xs:complexType><xs:sequence>
		    <xs:element name="Animal" type="xs:string"/>
		    <xs:element name="Keeper" type="xs:string"/>
		  </xs:sequence></xs:complexType></xs:element></xs:schema>`,
	} {
		if resp, body := putSchema(t, ts.URL, id, doc); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d: %s", id, resp.StatusCode, body)
		}
	}

	resp, body := post(t, ts.URL+"/v1/search", SearchRequest{
		Query:        &SchemaInput{Data: poSourceXSD},
		matchOptions: matchOptions{Trace: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Corpus != 2 || sr.Stats.Candidates != 2 {
		t.Errorf("stats = %+v, want corpus=2 candidates=2", sr.Stats)
	}
	if len(sr.Results) != 2 || sr.Results[0].ID != "po-target" {
		t.Fatalf("results = %+v, want po-target first", sr.Results)
	}
	if sr.Results[0].Score <= sr.Results[1].Score {
		t.Errorf("results not sorted by score: %+v", sr.Results)
	}
	if len(sr.Results[0].Correspondences) == 0 {
		t.Error("winner carries no correspondences")
	}
	if sr.Trace == nil || len(sr.Trace.Spans) != 3 ||
		sr.Trace.Spans[0].Phase != "compile" || sr.Trace.Spans[1].Phase != "prefilter" ||
		sr.Trace.Spans[2].Phase != "rank" {
		t.Fatalf("trace = %+v, want compile + prefilter + rank spans", sr.Trace)
	}
	if rank, pre := sr.Trace.Spans[2], sr.Trace.Spans[1]; rank.StartNs != pre.StartNs+pre.DurationNs ||
		rank.DurationNs != sr.Stats.RankNs || rank.Cells != int64(sr.Stats.Candidates) {
		t.Errorf("rank span = %+v, want it to start where prefilter ends and carry RankNs and the candidate count", rank)
	}

	// k=1 ranks only the overlap winner.
	resp, body = post(t, ts.URL+"/v1/search", SearchRequest{
		Query: &SchemaInput{Data: poSourceXSD},
		K:     1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k=1 search: status %d: %s", resp.StatusCode, body)
	}
	sr = SearchResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Candidates != 1 || len(sr.Results) != 1 || sr.Results[0].ID != "po-target" {
		t.Errorf("k=1: results %+v stats %+v", sr.Results, sr.Stats)
	}
	if sr.Trace != nil {
		t.Error("untraced search returned a trace")
	}

	// Malformed query → 400; search with an empty registry still works.
	resp, _ = post(t, ts.URL+"/v1/search", SearchRequest{Query: &SchemaInput{Data: "<bad"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}
}

// Search ranks its candidates through the Engine's observed match path:
// a /v1/search without k over a two-schema registry counts two matches.
func TestSearchCountsCandidateMatches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for id, doc := range map[string]string{"po-source": poSourceXSD, "po-target": poTargetXSD} {
		if resp, body := putSchema(t, ts.URL, id, doc); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d: %s", id, resp.StatusCode, body)
		}
	}
	before, _ := s.engine.MetricValue(qmatch.MetricMatches)
	resp, body := post(t, ts.URL+"/v1/search", SearchRequest{Query: &SchemaInput{Data: poSourceXSD}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	if after, _ := s.engine.MetricValue(qmatch.MetricMatches); after-before != 2 {
		t.Errorf("search raised %s by %d, want 2 (one per candidate)", qmatch.MetricMatches, after-before)
	}
}

func TestRegistryPersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{RegistryDir: dir})
	if resp, body := putSchema(t, ts.URL, "po-target", poTargetXSD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d: %s", resp.StatusCode, body)
	}
	ts.Close()

	// A second server over the same directory resumes the corpus.
	_, ts2 := newTestServer(t, Config{RegistryDir: dir})
	resp, body := do(t, http.MethodGet, ts2.URL+"/v1/schemas/po-target", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts2.URL+"/v1/search", SearchRequest{Query: &SchemaInput{Data: poSourceXSD}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after restart: status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].ID != "po-target" {
		t.Errorf("search after restart = %+v", sr.Results)
	}
}

// A registry blob torn by a crash mid-PUT does not keep the service down:
// New quarantines it, logs it at warn and counts it, and serves the rest.
func TestServerStartsOnTornRegistry(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{RegistryDir: dir})
	for id, doc := range map[string]string{"a": poSourceXSD, "b": poTargetXSD, "c": poSourceXSD} {
		if resp, body := putSchema(t, ts.URL, id, doc); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d: %s", id, resp.StatusCode, body)
		}
	}
	ts.Close()
	path := filepath.Join(dir, "b.qma")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s, err := New(Config{RegistryDir: dir, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatalf("New refused a store with one torn blob: %v", err)
	}
	defer s.Close()
	if !strings.Contains(logs.String(), `"level":"WARN","msg":"registry blob quarantined","path":"`+path+`.corrupt"`) {
		t.Errorf("no warn line for the quarantined blob:\n%s", logs.String())
	}
	if v, _ := s.reg.Value(MetricQuarantined); v != 1 {
		t.Errorf("%s = %d, want 1", MetricQuarantined, v)
	}
	if got := s.registry.List(); len(got) != 2 || got[0].ID != "a" || got[1].ID != "c" {
		t.Errorf("registry after restart = %+v, want a and c", got)
	}
}

func TestRegistryCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSchemas: 1})
	if resp, _ := putSchema(t, ts.URL, "one", poTargetXSD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first put rejected: %d", resp.StatusCode)
	}
	if resp, _ := putSchema(t, ts.URL, "two", poSourceXSD); resp.StatusCode != http.StatusInsufficientStorage {
		t.Errorf("over-capacity put: status %d, want 507", resp.StatusCode)
	}
	// Replacing the existing entry is always allowed.
	if resp, _ := putSchema(t, ts.URL, "one", poSourceXSD); resp.StatusCode != http.StatusOK {
		t.Errorf("replace at capacity: status %d, want 200", resp.StatusCode)
	}
}

func TestRegistryDrainRefusesWrites(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, _ := putSchema(t, ts.URL, "one", poTargetXSD); resp.StatusCode != http.StatusCreated {
		t.Fatal("setup put failed")
	}
	s.Drain()
	if resp, _ := putSchema(t, ts.URL, "two", poSourceXSD); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining put: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/schemas/one", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining delete: status %d, want 503", resp.StatusCode)
	}
	// Reads stay available while draining.
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/schemas/one", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("draining get: status %d, want 200", resp.StatusCode)
	}
}

// TestRouteTableCoversRegistry pins the route table: every registry
// endpoint is registered through the same instrumented table as the match
// endpoints (a rename here is an API change).
func TestRouteTableCoversRegistry(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"PUT /v1/schemas/{id}":                "schema_put",
		"GET /v1/schemas/{id}":                "schema_get",
		"DELETE /v1/schemas/{id}":             "schema_delete",
		"GET /v1/schemas":                     "schema_list",
		"POST /v1/schemas/{id}/match/{other}": "schema_match",
		"POST /v1/search":                     "search",
		"POST /v1/match":                      "match",
		"POST /v1/matchall":                   "matchall",
		"POST /v1/rank":                       "rank",
		"POST /v1/jobs":                       "job_submit",
		"GET /v1/jobs":                        "job_list",
		"GET /v1/jobs/{id}":                   "job_status",
		"GET /v1/jobs/{id}/results":           "job_results",
		"DELETE /v1/jobs/{id}":                "job_cancel",
		"GET /healthz":                        "healthz",
		"GET /metrics":                        "metrics",
	}
	got := map[string]string{}
	for _, rt := range s.routes() {
		got[rt.method+" "+rt.pattern] = rt.name
	}
	for pattern, name := range want {
		if got[pattern] != name {
			t.Errorf("route %q: name %q, want %q", pattern, got[pattern], name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("route table has %d entries, want %d: %v", len(got), len(want), got)
	}
}

// interface guard silence: registry types used in assertions above.
var _ = registry.Entry{}
