// Request and response wire types of the qmatchd HTTP API. Reports are
// served verbatim through Report.WriteJSON, so the response body of
// /v1/match is byte-identical to the library wire format pinned by
// testdata/wire_golden.json — the service adds envelope types only where
// a request carries more than one report.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"qmatch"
)

// SchemaInput is one schema shipped inside a request body.
type SchemaInput struct {
	// Format selects the parser: "xsd" (default), "dtd", "xml" (schema
	// inference from an instance document), "jsonschema" (alias
	// "json"), "ddl" (alias "sql"), or "auto" (content sniffing via
	// qmatch.DetectFormat).
	Format string `json:"format,omitempty"`
	// Data is the schema document text.
	Data string `json:"data"`
	// Root names the DTD root element ("" = first declared element) or
	// the DDL database label ("" = "db"). Ignored for the other
	// formats.
	Root string `json:"root,omitempty"`
}

// parse resolves the input into a Schema; role names the field in errors.
func (in *SchemaInput) parse(role string) (*qmatch.Schema, error) {
	if in == nil || in.Data == "" {
		return nil, fmt.Errorf("missing %s schema data", role)
	}
	var (
		s   *qmatch.Schema
		err error
	)
	switch strings.ToLower(in.Format) {
	case "", "xsd":
		s, err = qmatch.ParseSchemaString(in.Data)
	case "dtd":
		s, err = qmatch.ParseDTDString(in.Data, in.Root)
	case "xml":
		s, err = qmatch.InferSchemaString(in.Data)
	case "jsonschema", "json":
		s, err = qmatch.ParseJSONSchemaString(in.Data)
	case "ddl", "sql":
		s, err = qmatch.ParseDDLString(in.Data, in.Root)
	case "auto":
		// Unrecognized content surfaces qmatch.ErrUnknownFormat with
		// the sniffed prefix — the 400 body names what was seen.
		var format qmatch.Format
		format, err = qmatch.DetectFormat([]byte(in.Data))
		if err == nil && (format == qmatch.FormatDTD || format == qmatch.FormatDDL) {
			return (&SchemaInput{Format: string(format), Data: in.Data, Root: in.Root}).parse(role)
		}
		if err == nil {
			return (&SchemaInput{Format: string(format), Data: in.Data}).parse(role)
		}
	default:
		return nil, fmt.Errorf("%s: unknown schema format %q (want xsd, dtd, xml, jsonschema, ddl or auto)", role, in.Format)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", role, err)
	}
	return s, nil
}

func parseAll(ins []SchemaInput, role string) ([]*qmatch.Schema, error) {
	out := make([]*qmatch.Schema, len(ins))
	for i := range ins {
		s, err := ins[i].parse(fmt.Sprintf("%s[%d]", role, i))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// WeightsInput overrides the hybrid QoM axis weights for one request.
type WeightsInput struct {
	Label      float64 `json:"label"`
	Properties float64 `json:"properties"`
	Level      float64 `json:"level"`
	Children   float64 `json:"children"`
}

// matchOptions are the per-request matcher overrides shared by every
// matching endpoint; Server.engineFor derives the Engine that serves the
// request from them.
type matchOptions struct {
	// Algorithm overrides the server's default matcher.
	Algorithm string `json:"algorithm,omitempty"`
	// Threshold overrides the selection threshold.
	Threshold *float64 `json:"threshold,omitempty"`
	// Weights overrides the hybrid axis weights.
	Weights *WeightsInput `json:"weights,omitempty"`
	// Trace attaches the per-phase pipeline trace to every report —
	// the service equivalent of the qmatch CLI's -trace flag.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMs bounds the request's matching work in milliseconds
	// (clamped to the server's -max-timeout; 0 selects the server
	// default). On expiry the request fails with 504.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// MatchRequest is the body of POST /v1/match.
type MatchRequest struct {
	Source *SchemaInput `json:"source"`
	Target *SchemaInput `json:"target"`
	matchOptions
}

// MatchAllRequest is the body of POST /v1/matchall: the full
// sources×targets grid is matched on the Engine's worker pool.
type MatchAllRequest struct {
	Sources []SchemaInput `json:"sources"`
	Targets []SchemaInput `json:"targets"`
	matchOptions
}

// MatchAllResponse carries the grid, indexed reports[i][j] =
// match(sources[i], targets[j]); each report uses the library wire format.
type MatchAllResponse struct {
	Reports [][]*qmatch.Report `json:"reports"`
}

// RankRequest is the body of POST /v1/rank: one query schema scored
// against a corpus, returned in descending tree-QoM order.
type RankRequest struct {
	Query  *SchemaInput  `json:"query"`
	Corpus []SchemaInput `json:"corpus"`
	matchOptions
}

// RankedResult is one corpus entry of a rank response.
type RankedResult struct {
	// Index is the schema's position in the request corpus.
	Index int `json:"index"`
	// Score is the query→schema tree QoM.
	Score float64 `json:"score"`
	// Correspondences are the element mappings found for this schema.
	Correspondences []qmatch.Correspondence `json:"correspondences"`
}

// RankResponse is the corpus sorted by descending score (ties by index).
type RankResponse struct {
	Ranked []RankedResult `json:"ranked"`
}

// errorBody is the JSON error envelope of every non-2xx response. Trace
// carries the partial pipeline trace of a deadline-exceeded match when the
// request asked for tracing.
type errorBody struct {
	Error string             `json:"error"`
	Trace *qmatch.MatchTrace `json:"trace,omitempty"`
}

// decode reads the JSON request body into v, translating the body-size
// cap into 413 and malformed JSON into 400. It reports whether the
// request may proceed.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
	return false
}

// decodeOptional is decode for endpoints whose body is optional: an empty
// body leaves v at its zero value and proceeds.
func decodeOptional(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
