// Command qjobs drives qmatchd's asynchronous job API from the command
// line: submit a sharded batch-match job, poll its progress, stream its
// results, cancel it.
//
// Usage:
//
//	qjobs [-server URL] submit [-source FILE|-source-id ID]...
//	                           [-target FILE|-target-id ID]...
//	                           [-algorithm ALG] [-threshold T]
//	                           [-wait [-poll DUR]]       submit a job
//	qjobs [-server URL] status [-shards] ID              poll one job
//	qjobs [-server URL] results [-after N] ID            stream NDJSON results
//	qjobs [-server URL] cancel ID                        cancel / forget a job
//	qjobs [-server URL] list                             list retained jobs
//
// Schema files parse server-side in the format their extension names, as
// qregistry reads them: .xsd (XML Schema), .dtd (DTD), .xml (schema
// inference), .json (JSON Schema), .sql/.ddl (SQL DDL, database labeled
// after the file); other extensions are sniffed from the content.
// -source-id/-target-id reference schemas already registered with PUT
// /v1/schemas/{id}. Sources and targets mix freely, and flags repeat:
// every -source/-source-id adds one grid row, every -target/-target-id
// one column.
//
// With -wait, submit polls until the job reaches a terminal state and
// exits non-zero unless it completed. results writes the NDJSON stream
// verbatim to stdout — one {"cell","source","target","report"} line per
// finished cell, then a {"done":true,...} trailer; after a disconnect,
// resume with -after set to the number of report lines already received.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qmatch"
	"qmatch/internal/jobs"
	"qmatch/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qjobs:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: qjobs [-server URL] submit|status|results|cancel|list ... (run with a subcommand)")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qjobs", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	server := fs.String("server", "http://127.0.0.1:8764", "qmatchd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usage()
	}
	c := &client{base: strings.TrimRight(*server, "/")}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(c, rest, out)
	case "status":
		return cmdStatus(c, rest, out)
	case "results":
		return cmdResults(c, rest, out)
	case "cancel":
		return cmdCancel(c, rest, out)
	case "list":
		return cmdList(c, rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q: %w", cmd, usage())
	}
}

// client wraps the handful of qmatchd calls the subcommands make,
// translating non-2xx responses into the server's error message.
type client struct {
	base string
	http http.Client
}

// do performs one request; when into is non-nil the 2xx body is decoded
// into it, otherwise the caller receives the open body to stream.
func (c *client) do(method, path string, body, into any) (io.ReadCloser, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = strings.NewReader(string(raw))
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return nil, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if into == nil {
		return resp.Body, nil
	}
	defer resp.Body.Close()
	return nil, json.NewDecoder(resp.Body).Decode(into)
}

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// loadRefs builds one grid side from interleaved file and registry-id
// flags. Files ship inline in the format qmatch.FormatOf gives their
// extension ("auto" for any other), and a DDL file with its base name as
// the database label, so a job sees the tree qregistry put registers.
func loadRefs(files, ids multiFlag) ([]serve.JobSchemaRef, error) {
	refs := make([]serve.JobSchemaRef, 0, len(files)+len(ids))
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		in := &serve.SchemaInput{Format: string(qmatch.FormatOf(path)), Data: string(data)}
		if in.Format == string(qmatch.FormatDDL) {
			base := filepath.Base(path)
			in.Root = strings.TrimSuffix(base, filepath.Ext(base))
		}
		refs = append(refs, serve.JobSchemaRef{Schema: in})
	}
	for _, id := range ids {
		refs = append(refs, serve.JobSchemaRef{ID: id})
	}
	return refs, nil
}

func cmdSubmit(c *client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qjobs submit", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var srcFiles, srcIDs, tgtFiles, tgtIDs multiFlag
	fs.Var(&srcFiles, "source", "source schema file (repeatable)")
	fs.Var(&srcIDs, "source-id", "registered source schema id (repeatable)")
	fs.Var(&tgtFiles, "target", "target schema file (repeatable)")
	fs.Var(&tgtIDs, "target-id", "registered target schema id (repeatable)")
	algorithm := fs.String("algorithm", "", "matcher override: hybrid, linguistic, structural or cupid")
	threshold := fs.Float64("threshold", -1, "selection threshold override")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal state")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval with -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	req := serve.JobSubmitRequest{}
	var err error
	if req.Sources, err = loadRefs(srcFiles, srcIDs); err != nil {
		return err
	}
	if req.Targets, err = loadRefs(tgtFiles, tgtIDs); err != nil {
		return err
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		return fmt.Errorf("need at least one -source/-source-id and one -target/-target-id")
	}
	req.Algorithm = *algorithm
	if *threshold >= 0 {
		req.Threshold = threshold
	}
	var job serve.JobStatusResponse
	if _, err := c.do(http.MethodPost, "/v1/jobs", req, &job); err != nil {
		return err
	}
	printProgress(out, job.Progress)
	if !*wait {
		return nil
	}
	for !job.Status.Terminal() {
		time.Sleep(*poll)
		if _, err := c.do(http.MethodGet, "/v1/jobs/"+url.PathEscape(job.ID), nil, &job); err != nil {
			return err
		}
		printProgress(out, job.Progress)
	}
	if job.Status != jobs.StatusCompleted {
		return fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return nil
}

func printProgress(out io.Writer, p jobs.Progress) {
	fmt.Fprintf(out, "%s %-9s cells %d/%d shards %d/%d\n",
		p.ID, p.Status, p.CompletedCells, p.Cells, p.ShardsDone, p.ShardsTotal)
}

func cmdStatus(c *client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qjobs status", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	shards := fs.Bool("shards", false, "include per-shard detail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qjobs status [-shards] ID")
	}
	path := "/v1/jobs/" + url.PathEscape(fs.Arg(0))
	if *shards {
		path += "?shards=1"
	}
	var job serve.JobStatusResponse
	if _, err := c.do(http.MethodGet, path, nil, &job); err != nil {
		return err
	}
	printProgress(out, job.Progress)
	if job.Error != "" {
		fmt.Fprintf(out, "error: %s\n", job.Error)
	}
	for _, sh := range job.Shards {
		fmt.Fprintf(out, "  shard %-3d cells [%d,%d) cost %-8d %s\n",
			sh.Index, sh.Start, sh.End, sh.Cost, sh.Status)
	}
	return nil
}

func cmdResults(c *client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qjobs results", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	after := fs.Int("after", 0, "skip the first N cells (resume a cut stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qjobs results [-after N] ID")
	}
	path := fmt.Sprintf("/v1/jobs/%s/results", url.PathEscape(fs.Arg(0)))
	if *after > 0 {
		path += fmt.Sprintf("?after=%d", *after)
	}
	body, err := c.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer body.Close()
	_, err = io.Copy(out, body)
	return err
}

func cmdCancel(c *client, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: qjobs cancel ID")
	}
	var job serve.JobStatusResponse
	if _, err := c.do(http.MethodDelete, "/v1/jobs/"+url.PathEscape(args[0]), nil, &job); err != nil {
		return err
	}
	printProgress(out, job.Progress)
	return nil
}

func cmdList(c *client, args []string, out io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: qjobs list")
	}
	var resp serve.JobListResponse
	if _, err := c.do(http.MethodGet, "/v1/jobs", nil, &resp); err != nil {
		return err
	}
	for _, p := range resp.Jobs {
		printProgress(out, p)
	}
	return nil
}
