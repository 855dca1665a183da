// The registry endpoints of the qmatchd API: PUT/GET/DELETE
// /v1/schemas/{id} maintain a corpus of compiled schema artifacts
// (persistent when the server runs with -registry), and POST /v1/search
// ranks that corpus against a query schema — the vocabulary-overlap
// prefilter selects top-K candidates, only those pay for a full QoM match.
package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"qmatch"
	"qmatch/internal/registry"
)

// PutSchemaRequest is the body of PUT /v1/schemas/{id}.
type PutSchemaRequest struct {
	// Schema is the document to compile and register.
	Schema *SchemaInput `json:"schema"`
	// LabelTokens extends the artifact's prefilter vocabulary with the
	// tokenized forms of compound labels (see qmatch.WithLabelTokens).
	LabelTokens bool `json:"labelTokens,omitempty"`
}

// SchemaEntryResponse is the body of a successful PUT or GET on
// /v1/schemas/{id}: the registry metadata, plus the schema rendered back
// to XSD on GET. On a PUT replacing an existing schema, Rematched reports
// the cached pair matches that were refreshed incrementally against the
// new version (see POST /v1/schemas/{id}/match/{other}).
type SchemaEntryResponse struct {
	registry.Entry
	XSD       string                 `json:"xsd,omitempty"`
	Rematched []registry.RefreshStat `json:"rematched,omitempty"`
}

// SchemaMatchRequest is the optional body of POST
// /v1/schemas/{id}/match/{other}; an empty body matches with the server
// defaults.
type SchemaMatchRequest struct {
	// TimeoutMs bounds the match (clamped to -max-timeout; 0 = default).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// SchemaListResponse is the body of GET /v1/schemas.
type SchemaListResponse struct {
	Schemas []registry.Entry `json:"schemas"`
}

// SearchRequest is the body of POST /v1/search: one query schema ranked
// against the registered corpus.
type SearchRequest struct {
	Query *SchemaInput `json:"query"`
	// K bounds how many prefilter candidates pay for a full match
	// (0 = every registered schema).
	K int `json:"k,omitempty"`
	// LabelTokens compiles the query's prefilter vocabulary with label
	// tokens; set it when the corpus was registered that way.
	LabelTokens bool `json:"labelTokens,omitempty"`
	matchOptions
}

// SearchResponse is the ranked corpus search result.
type SearchResponse struct {
	Results []registry.Result    `json:"results"`
	Stats   registry.SearchStats `json:"stats"`
	// Trace carries the compile/prefilter phase spans when the request
	// asked for tracing.
	Trace *qmatch.MatchTrace `json:"trace,omitempty"`
}

// schemaID validates the {id} path segment; invalid ids fail with 400.
func schemaID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if err := registry.ValidateID(id); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	return id, true
}

func (s *Server) handlePutSchema(w http.ResponseWriter, r *http.Request) {
	id, ok := schemaID(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req PutSchemaRequest
	if !decode(w, r, &req) {
		return
	}
	schema, err := req.Schema.parse(r.Context(), "schema")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var copts []qmatch.CompileOption
	if req.LabelTokens {
		copts = append(copts, qmatch.WithLabelTokens())
	}
	cs, err := s.engine.Compile(schema, copts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	created := !s.registry.Has(id)
	if created && s.registry.Len() >= s.cfg.MaxSchemas {
		writeError(w, http.StatusInsufficientStorage,
			"registry full: delete schemas or raise -max-schemas")
		return
	}
	// A re-PUT refreshes the registry's cached matches incrementally: the
	// previous version's pair tables seed Engine.Rematch, so only changed
	// subtrees of the new schema are rescored.
	refreshed, err := s.registry.PutRematch(id, cs, s.rematch)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, SchemaEntryResponse{Entry: registry.EntryOf(id, cs), Rematched: refreshed})
}

// handleSchemaMatch matches two registered schemas by id on the compiled
// fast path, caching the report so a later re-PUT of either schema
// refreshes it incrementally. Cache status is reported in the
// X-Qmatchd-Cache header ("hit" or "miss"); the body is the library wire
// Report, with the rematch breakdown attached when the cached report came
// from an incremental refresh.
func (s *Server) handleSchemaMatch(w http.ResponseWriter, r *http.Request) {
	id, ok := schemaID(w, r)
	if !ok {
		return
	}
	other := r.PathValue("other")
	if err := registry.ValidateID(other); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req SchemaMatchRequest
	if !decodeOptional(w, r, &req) {
		return
	}
	s.limited(w, r, req.TimeoutMs, func(ctx context.Context) {
		rep, cached, err := s.registry.Match(ctx, s.rematch, id, other)
		if err != nil {
			if errors.Is(err, registry.ErrNotFound) {
				writeError(w, http.StatusNotFound, err.Error())
				return
			}
			s.writeDeadline(w, nil, err)
			return
		}
		if cached {
			w.Header().Set("X-Qmatchd-Cache", "hit")
		} else {
			w.Header().Set("X-Qmatchd-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rep.WriteJSON(w)
	})
}

func (s *Server) handleGetSchema(w http.ResponseWriter, r *http.Request) {
	id, ok := schemaID(w, r)
	if !ok {
		return
	}
	cs, err := s.registry.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SchemaEntryResponse{
		Entry: registry.EntryOf(id, cs),
		XSD:   cs.Schema().XSD(),
	})
}

func (s *Server) handleDeleteSchema(w http.ResponseWriter, r *http.Request) {
	id, ok := schemaID(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if err := s.registry.Delete(id); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListSchemas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SchemaListResponse{Schemas: s.registry.List()})
}

// handleSearch runs the corpus search under the same admission control as
// the matching endpoints — the full-rank stage is real match work — and,
// when tracing is requested, reports the pipeline as compile, prefilter
// and rank phase spans alongside the search stats.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	query, err := req.Query.parse(r.Context(), "query")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, err := s.engineFor(req.matchOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var copts []qmatch.CompileOption
	if req.LabelTokens {
		copts = append(copts, qmatch.WithLabelTokens())
	}
	s.limited(w, r, req.TimeoutMs, func(ctx context.Context) {
		start := time.Now()
		compiled, err := eng.Compile(query, copts...)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		compileNs := time.Since(start).Nanoseconds()
		results, stats, err := s.registry.Search(ctx, eng, compiled, req.K)
		if err != nil {
			s.writeDeadline(w, nil, err)
			return
		}
		if results == nil {
			results = []registry.Result{}
		}
		resp := SearchResponse{Results: results, Stats: stats}
		if req.Trace {
			resp.Trace = &qmatch.MatchTrace{
				TotalNs: time.Since(start).Nanoseconds(),
				Spans: []qmatch.TraceSpan{
					{Phase: "compile", StartNs: 0, DurationNs: compileNs,
						SrcNodes: compiled.Size()},
					{Phase: "prefilter", StartNs: compileNs, DurationNs: stats.PrefilterNs,
						Cells: int64(stats.Corpus), Selected: stats.Candidates},
					{Phase: "rank", StartNs: compileNs + stats.PrefilterNs, DurationNs: stats.RankNs,
						Cells: int64(stats.Candidates)},
				},
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
}
