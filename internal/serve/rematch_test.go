package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qmatch"
)

// poTargetEvolvedXSD renames DeliverTo — the delta a re-PUT rematches
// incrementally.
const poTargetEvolvedXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:integer"/>
    <xs:element name="Date" type="xs:date"/>
    <xs:element name="ShipAddress" type="xs:string"/>
  </xs:sequence></xs:complexType></xs:element></xs:schema>`

// The registry match endpoint serves the compiled fast path with a report
// cache, and a re-PUT of one side refreshes the cached report
// incrementally — the response then equals a from-scratch /v1/match of the
// new pair.
func TestSchemaMatchEndpointAndIncrementalPut(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := putSchema(t, ts.URL, "src", poSourceXSD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put src: %d %s", resp.StatusCode, body)
	}
	if resp, body := putSchema(t, ts.URL, "tgt", poTargetXSD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put tgt: %d %s", resp.StatusCode, body)
	}

	matchURL := ts.URL + "/v1/schemas/src/match/tgt"
	resp, body := do(t, http.MethodPost, matchURL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema match: %d %s", resp.StatusCode, body)
	}
	if c := resp.Header.Get("X-Qmatchd-Cache"); c != "miss" {
		t.Fatalf("first match cache header %q, want miss", c)
	}
	var first qmatch.Report
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Correspondences) == 0 {
		t.Fatal("schema match found no correspondences")
	}

	resp, _ = do(t, http.MethodPost, matchURL, SchemaMatchRequest{})
	if c := resp.Header.Get("X-Qmatchd-Cache"); resp.StatusCode != http.StatusOK || c != "hit" {
		t.Fatalf("second match: status %d cache %q, want 200 hit", resp.StatusCode, c)
	}

	// Unknown ids fail with 404, bad ids with 400.
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/schemas/src/match/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown other: %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/v1/schemas/src/match/.bad", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid other id: %d", resp.StatusCode)
	}

	// Re-PUT the target with an evolved schema: the cached match refreshes
	// incrementally and the PUT response reports the savings.
	resp, body = putSchema(t, ts.URL, "tgt", poTargetEvolvedXSD)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-put: %d %s", resp.StatusCode, body)
	}
	var entry SchemaEntryResponse
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatal(err)
	}
	if len(entry.Rematched) != 1 {
		t.Fatalf("re-put refreshed %d matches, want 1: %s", len(entry.Rematched), body)
	}
	rm := entry.Rematched[0]
	if rm.Source != "src" || rm.Target != "tgt" || rm.Rematch.Side != "target" ||
		rm.Rematch.Full || rm.Rematch.CopiedCells == 0 {
		t.Fatalf("refresh not incremental: %+v", rm)
	}

	// The refreshed cached report equals a from-scratch match of the new
	// pair (modulo the rematch breakdown it carries).
	resp, body = do(t, http.MethodPost, matchURL, nil)
	if c := resp.Header.Get("X-Qmatchd-Cache"); resp.StatusCode != http.StatusOK || c != "hit" {
		t.Fatalf("post-refresh match: status %d cache %q", resp.StatusCode, c)
	}
	var refreshed qmatch.Report
	if err := json.Unmarshal(body, &refreshed); err != nil {
		t.Fatal(err)
	}
	if refreshed.Rematch == nil || refreshed.Rematch.RescoredCells == 0 {
		t.Fatalf("refreshed report carries no rematch breakdown: %s", body)
	}
	resp, body = post(t, ts.URL+"/v1/match", matchBody(poSourceXSD, poTargetEvolvedXSD))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference match: %d %s", resp.StatusCode, body)
	}
	var want qmatch.Report
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if refreshed.TreeQoM != want.TreeQoM || len(refreshed.Correspondences) != len(want.Correspondences) {
		t.Fatalf("refreshed report diverges:\n got %+v\nwant %+v", refreshed, want)
	}
	for i := range want.Correspondences {
		if refreshed.Correspondences[i] != want.Correspondences[i] {
			t.Fatalf("correspondence %d: %v, want %v", i, refreshed.Correspondences[i], want.Correspondences[i])
		}
	}
}

// Deleting a schema must drop its cached matches: the next match on a
// fresh registration is a miss, never a stale hit.
func TestSchemaMatchCacheDropsOnDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putSchema(t, ts.URL, "src", poSourceXSD)
	putSchema(t, ts.URL, "tgt", poTargetXSD)
	matchURL := ts.URL + "/v1/schemas/src/match/tgt"
	if resp, body := do(t, http.MethodPost, matchURL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/schemas/tgt", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	putSchema(t, ts.URL, "tgt", poTargetEvolvedXSD)
	resp, _ := do(t, http.MethodPost, matchURL, nil)
	if c := resp.Header.Get("X-Qmatchd-Cache"); resp.StatusCode != http.StatusOK || c != "miss" {
		t.Fatalf("post-delete match: status %d cache %q, want 200 miss", resp.StatusCode, c)
	}
}

// The server's Engine parks no pair tables: job shards and every other
// compiled-path match return theirs to the arena. Only the registry
// routes' Engine keeps them, for the incremental refresh above.
func TestDefaultEngineKeepsNoTables(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	compile := func(doc string) *qmatch.CompiledSchema {
		t.Helper()
		schema, err := qmatch.ParseSchemaString(doc)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := s.engine.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	src, tgt, evolved := compile(poSourceXSD), compile(poTargetXSD), compile(poTargetEvolvedXSD)
	_, err := s.engine.Rematch(s.engine.MatchCompiled(src, tgt), tgt, evolved)
	if err == nil || !strings.Contains(err.Error(), "carries no pair-table state") {
		t.Fatalf("rematch on the default Engine: err %v, want no pair-table state", err)
	}
	if _, err := s.rematch.Rematch(s.rematch.MatchCompiled(src, tgt), tgt, evolved); err != nil {
		t.Fatalf("rematch on the registry Engine: %v", err)
	}
}
