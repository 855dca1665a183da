// Request and response wire types of the qmatchd HTTP API. Reports are
// served verbatim through Report.WriteJSON, so the response body of
// /v1/match is byte-identical to the library wire format pinned by
// testdata/wire_golden.json — the service adds envelope types only where
// a request carries more than one report.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"qmatch"
	"qmatch/internal/obs"
)

// SchemaInput is one schema shipped inside a request body.
type SchemaInput struct {
	// Format selects the parser. It accepts any name qmatch.Parse
	// accepts, in any case: "xsd" (the default), "dtd", "xml" (schema
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
// It records a parse span under the request span of ctx's trace, with the
// schema's size as the span's target nodes for a target role (target,
// targets[i], corpus[i]) and as its source nodes for any other.
func (in *SchemaInput) parse(ctx context.Context, role string) (*qmatch.Schema, error) {
	sp := obs.TraceFromContext(ctx).StartSpan(obs.PhaseParse)
	defer sp.End()
	if in == nil || in.Data == "" {
		return nil, fmt.Errorf("missing %s schema data", role)
	}
	s, _, err := qmatch.Parse(in.Data, qmatch.Format(in.Format), in.Root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", role, err)
	}
	if strings.HasPrefix(role, "target") || strings.HasPrefix(role, "corpus") {
		sp.SetNodes(0, s.Size())
	} else {
		sp.SetNodes(s.Size(), 0)
	}
	return s, nil
}

func parseAll(ctx context.Context, ins []SchemaInput, role string) ([]*qmatch.Schema, error) {
	out := make([]*qmatch.Schema, len(ins))
	for i := range ins {
		s, err := ins[i].parse(ctx, fmt.Sprintf("%s[%d]", role, i))
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
