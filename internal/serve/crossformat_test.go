package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qmatch"
)

const poJSONSchema = `{
  "title": "PurchaseOrder",
  "type": "object",
  "required": ["OrderNo", "Date"],
  "properties": {
    "OrderNo": {"type": "integer"},
    "Date": {"type": "string", "format": "date"},
    "DeliverTo": {"type": "string"}
  }
}`

const poDDL = `CREATE TABLE PurchaseOrders (
    OrderNo INT PRIMARY KEY,
    PurchaseDate DATE NOT NULL,
    ShipTo VARCHAR(200)
);`

// A JSON-Schema source against an XSD target goes through /v1/match like
// any other pair — the heterogeneous scenario end to end over HTTP.
func TestMatchJSONSchemaAgainstXSD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MatchRequest{
		Source: &SchemaInput{Format: "jsonschema", Data: poJSONSchema},
		Target: &SchemaInput{Data: poSourceXSD},
	}
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var report qmatch.Report
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, c := range report.Correspondences {
		found[c.Source] = true
	}
	if !found["PurchaseOrder/OrderNo"] {
		t.Errorf("OrderNo not matched across formats: %s", body)
	}

	// The "auto" format sniffs the same pair without being told.
	req = MatchRequest{
		Source: &SchemaInput{Format: "auto", Data: poJSONSchema},
		Target: &SchemaInput{Format: "auto", Data: poSourceXSD},
	}
	if resp, body := post(t, ts.URL+"/v1/match", req); resp.StatusCode != http.StatusOK {
		t.Errorf("auto-sniffed match: status %d: %s", resp.StatusCode, body)
	}
}

// Registering a JSON Schema and a DDL schema and matching them by id
// exercises the compile→registry→match path with both new front-ends.
func TestRegistryCrossFormatMatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	puts := []struct{ id, format, data, root string }{
		{"po-js", "jsonschema", poJSONSchema, ""},
		{"po-sql", "ddl", poDDL, "orderdb"},
	}
	for _, p := range puts {
		resp, body := do(t, http.MethodPut, ts.URL+"/v1/schemas/"+p.id,
			PutSchemaRequest{Schema: &SchemaInput{Format: p.format, Data: p.data, Root: p.root}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: status %d: %s", p.id, resp.StatusCode, body)
		}
	}

	resp, body := do(t, http.MethodPost, ts.URL+"/v1/schemas/po-js/match/po-sql", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross-format registry match: status %d: %s", resp.StatusCode, body)
	}
	var report qmatch.Report
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range report.Correspondences {
		found = found || strings.HasSuffix(c.Source, "/OrderNo")
	}
	if !found {
		t.Errorf("no OrderNo correspondence between registered jsonschema and ddl: %s", body)
	}
}

// Unrecognized inline content under format "auto" fails with a 400 whose
// body names the unknown format and echoes the sniffed prefix, so clients
// see what the server saw instead of a generic parse error.
func TestAutoFormatJunk400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MatchRequest{
		Source: &SchemaInput{Format: "auto", Data: "certainly not a schema"},
		Target: &SchemaInput{Data: poTargetXSD},
	}
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "unknown schema format") {
		t.Errorf("400 body does not name the unknown format: %q", eb.Error)
	}
	if !strings.Contains(eb.Error, `"certainly not a schema"`) {
		t.Errorf("400 body does not echo the sniffed prefix: %q", eb.Error)
	}
}

// Every format value the SchemaInput doc promises parses its example,
// and "auto" tells an XSD by its root tag past a DOCTYPE; the rejection
// message for the rest enumerates the accepted set.
func TestSchemaInputFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inputs := []SchemaInput{
		{Format: "jsonschema", Data: poJSONSchema},
		{Format: "json", Data: poJSONSchema},
		{Format: "ddl", Data: poDDL},
		{Format: "sql", Data: poDDL, Root: "orderdb"},
		{Format: "auto", Data: "<!DOCTYPE xs:schema [<!ENTITY arrow \"->\">]>\n" + poSourceXSD},
	}
	for _, in := range inputs {
		req := MatchRequest{Source: &in, Target: &SchemaInput{Data: poTargetXSD}}
		if resp, body := post(t, ts.URL+"/v1/match", req); resp.StatusCode != http.StatusOK {
			t.Errorf("format %q: status %d: %s", in.Format, resp.StatusCode, body)
		}
	}
	req := MatchRequest{
		Source: &SchemaInput{Format: "yaml", Data: "a: 1"},
		Target: &SchemaInput{Data: poTargetXSD},
	}
	resp, body := post(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("yaml format: status %d, want 400: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"jsonschema", "ddl", "auto"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("rejection %s does not offer %q", body, want)
		}
	}
}
