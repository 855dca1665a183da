package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/serve"
)

func xsd(name string) string {
	return `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="` + name + `">
    <xs:complexType><xs:sequence>
      <xs:element name="name" type="xs:string"/>
      <xs:element name="price" type="xs:decimal"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`
}

// startServer runs a full qmatchd handler on an httptest listener.
func startServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{JobWorkers: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func writeSchema(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSubmitWaitResultsAndList(t *testing.T) {
	_, ts := startServer(t)
	dir := t.TempDir()
	src := writeSchema(t, dir, "src.xsd", xsd("item"))
	tgt := writeSchema(t, dir, "tgt.xsd", xsd("product"))

	var out strings.Builder
	err := run([]string{"-server", ts.URL, "submit",
		"-source", src, "-target", tgt, "-target", src, "-wait", "-poll", "10ms"}, &out)
	if err != nil {
		t.Fatalf("submit -wait: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "completed") || !strings.Contains(last, "cells 2/2") {
		t.Fatalf("final progress line = %q, want completed with cells 2/2", last)
	}
	id := strings.Fields(last)[0]

	var res strings.Builder
	if err := run([]string{"-server", ts.URL, "results", id}, &res); err != nil {
		t.Fatalf("results: %v", err)
	}
	got := strings.Split(strings.TrimSpace(res.String()), "\n")
	if len(got) != 3 { // 2 cells + trailer
		t.Fatalf("results stream has %d lines, want 3:\n%s", len(got), res.String())
	}
	if !strings.Contains(got[2], `"done":true`) {
		t.Fatalf("missing trailer: %q", got[2])
	}

	// -after resumes past already-received cells.
	var resumed strings.Builder
	if err := run([]string{"-server", ts.URL, "results", "-after", "1", id}, &resumed); err != nil {
		t.Fatalf("results -after: %v", err)
	}
	if n := len(strings.Split(strings.TrimSpace(resumed.String()), "\n")); n != 2 {
		t.Fatalf("resumed stream has %d lines, want 2:\n%s", n, resumed.String())
	}

	var list strings.Builder
	if err := run([]string{"-server", ts.URL, "list"}, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(list.String(), id) {
		t.Fatalf("list output %q missing job %s", list.String(), id)
	}

	// cancel on a terminal job forgets it; a second status poll is 404.
	var cancel strings.Builder
	if err := run([]string{"-server", ts.URL, "cancel", id}, &cancel); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := run([]string{"-server", ts.URL, "status", id}, &cancel); err == nil {
		t.Fatal("status after forget: want error, got nil")
	}
}

func TestSubmitRegistryRefsAndStatusShards(t *testing.T) {
	_, ts := startServer(t)
	// Register a schema so -source-id resolves.
	body, err := json.Marshal(map[string]any{"schema": map[string]string{"data": xsd("order")}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/schemas/order", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT schema: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT schema: status %d", resp.StatusCode)
	}

	dir := t.TempDir()
	tgt := writeSchema(t, dir, "tgt.xsd", xsd("invoice"))
	var out strings.Builder
	err = run([]string{"-server", ts.URL, "submit",
		"-source-id", "order", "-target", tgt, "-wait", "-poll", "10ms"}, &out)
	if err != nil {
		t.Fatalf("submit registry ref: %v\n%s", err, out.String())
	}
	id := strings.Fields(strings.TrimSpace(out.String()))[0]

	var status strings.Builder
	if err := run([]string{"-server", ts.URL, "status", "-shards", id}, &status); err != nil {
		t.Fatalf("status -shards: %v", err)
	}
	if !strings.Contains(status.String(), "shard 0") {
		t.Fatalf("status -shards output missing shard detail:\n%s", status.String())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := startServer(t)
	if err := run([]string{"-server", ts.URL, "submit"}, &strings.Builder{}); err == nil {
		t.Fatal("submit with no schemas: want error")
	}
	if err := run([]string{"-server", ts.URL, "nope"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown subcommand: want error")
	}
	if err := run([]string{"-server", ts.URL, "status", "missing"}, &strings.Builder{}); err == nil {
		t.Fatal("status of unknown job: want error")
	}
}

// Files ship in every format qregistry reads: a JSON Schema source and a
// DDL target give the report Engine.Match gives over LoadSchema of the
// same two files, the DDL database labeled after the file.
func TestSubmitFilesInEveryFormat(t *testing.T) {
	_, ts := startServer(t)
	dir := t.TempDir()
	src := writeSchema(t, dir, "po.json", `{"title": "PurchaseOrder", "type": "object",
  "required": ["OrderNo"],
  "properties": {"OrderNo": {"type": "integer"}, "DeliverTo": {"type": "string"}}}`)
	tgt := writeSchema(t, dir, "orders.sql",
		"CREATE TABLE PurchaseOrders (OrderNo INT PRIMARY KEY, DeliverTo VARCHAR(200));")

	var out strings.Builder
	err := run([]string{"-server", ts.URL, "submit", "-source", src, "-target", tgt, "-wait", "-poll", "10ms"}, &out)
	if err != nil {
		t.Fatalf("submit -wait: %v\n%s", err, out.String())
	}
	id := strings.Fields(strings.TrimSpace(out.String()))[0]
	var res strings.Builder
	if err := run([]string{"-server", ts.URL, "results", id}, &res); err != nil {
		t.Fatalf("results: %v", err)
	}
	var line serve.JobResultLine
	if err := json.Unmarshal([]byte(strings.SplitN(res.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, line.Report); err != nil {
		t.Fatal(err)
	}

	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	source, err := qmatch.LoadSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	target, err := qmatch.LoadSchema(tgt)
	if err != nil {
		t.Fatal(err)
	}
	var report, want bytes.Buffer
	if err := eng.Match(source, target).WriteJSON(&report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, report.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("job report differs from Engine.Match over LoadSchema\njob:  %s\nwant: %s", got.String(), want.String())
	}
}
