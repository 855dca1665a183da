// The async job endpoints of the qmatchd API: POST /v1/jobs submits a
// large sources×targets MatchAll grid to the sharded coordinator
// (internal/jobs) and returns immediately with a job id; GET /v1/jobs/{id}
// polls per-shard progress; GET /v1/jobs/{id}/results streams completed
// cells as NDJSON, resumable with ?after=; DELETE /v1/jobs/{id} cancels.
// Schemas come inline or by registry id, so a corpus registered once can
// be batch-matched without re-shipping documents.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"qmatch"
	"qmatch/internal/jobs"
	"qmatch/internal/obs"
	"qmatch/internal/registry"
)

// JobSchemaRef names one grid side entry of a job submission: either a
// registered schema by id (its compiled artifact is used directly — no
// re-parse) or an inline document compiled at submission time. Exactly one
// of the two must be set.
type JobSchemaRef struct {
	// ID selects a registered schema (PUT /v1/schemas/{id}).
	ID string `json:"id,omitempty"`
	// Schema ships the document inline.
	Schema *SchemaInput `json:"schema,omitempty"`
}

// JobSubmitRequest is the body of POST /v1/jobs. The embedded match
// options select the engine exactly as on /v1/matchall; TimeoutMs is
// ignored — a job is not bounded by a request deadline, it runs until
// done, failed or cancelled.
type JobSubmitRequest struct {
	Sources []JobSchemaRef `json:"sources"`
	Targets []JobSchemaRef `json:"targets"`
	matchOptions
}

// JobStatusResponse is the body of POST /v1/jobs (202) and GET
// /v1/jobs/{id} (200): the job's progress snapshot, with per-shard detail
// when the poll asked for ?shards=1 and the finished job's hierarchical
// trace (one span per shard) when it asked for ?trace=1.
type JobStatusResponse struct {
	jobs.Progress
	Trace *obs.MatchTrace `json:"trace,omitempty"`
}

// JobListResponse is the body of GET /v1/jobs, newest submission first.
type JobListResponse struct {
	Jobs []jobs.Progress `json:"jobs"`
}

// JobResultLine is one NDJSON line of GET /v1/jobs/{id}/results: cell
// sources[source]×targets[target] of the grid, with the report serialized
// exactly as the synchronous /v1/matchall embeds it.
type JobResultLine struct {
	// Cell is the row-major cell index (source×targets + target) — feed
	// the count of lines received to ?after= to resume here.
	Cell   int             `json:"cell"`
	Source int             `json:"source"`
	Target int             `json:"target"`
	Report json.RawMessage `json:"report"`
}

// JobResultTrailer is the final NDJSON line of a drained stream: the
// job's terminal status. A stream that ends without a trailer was cut
// (client disconnect, server shutdown) — resume with ?after=.
type JobResultTrailer struct {
	Done   bool        `json:"done"`
	Status jobs.Status `json:"status"`
	Error  string      `json:"error,omitempty"`
	// Cells counts the cells with results across the whole job (not just
	// this stream) — equals the grid size iff the job completed.
	Cells int `json:"cells"`
}

// resolveJobRefs turns one grid side of a submission into compiled
// schemas: registry ids resolve to their stored artifacts, inline
// documents are parsed and compiled through eng. The returned names
// mirror the refs for progress display ("inline" for inline entries).
func (s *Server) resolveJobRefs(ctx context.Context, refs []JobSchemaRef, role string, eng *qmatch.Engine) ([]*qmatch.CompiledSchema, []string, int, error) {
	schemas := make([]*qmatch.CompiledSchema, len(refs))
	names := make([]string, len(refs))
	for i, ref := range refs {
		switch {
		case ref.ID != "" && ref.Schema != nil:
			return nil, nil, http.StatusBadRequest,
				fmt.Errorf("%s[%d]: set id or schema, not both", role, i)
		case ref.ID != "":
			cs, err := s.registry.Get(ref.ID)
			if err != nil {
				if errors.Is(err, registry.ErrNotFound) {
					return nil, nil, http.StatusNotFound, fmt.Errorf("%s[%d]: %w", role, i, err)
				}
				return nil, nil, http.StatusInternalServerError, fmt.Errorf("%s[%d]: %w", role, i, err)
			}
			schemas[i], names[i] = cs, ref.ID
		case ref.Schema != nil:
			parsed, err := ref.Schema.parse(ctx, fmt.Sprintf("%s[%d]", role, i))
			if err != nil {
				return nil, nil, http.StatusBadRequest, err
			}
			cs, err := eng.Compile(parsed)
			if err != nil {
				return nil, nil, http.StatusBadRequest, fmt.Errorf("%s[%d]: %w", role, i, err)
			}
			schemas[i], names[i] = cs, "inline"
		default:
			return nil, nil, http.StatusBadRequest,
				fmt.Errorf("%s[%d]: need a registry id or an inline schema", role, i)
		}
	}
	return schemas, names, 0, nil
}

// handleSubmitJob accepts a job: resolve the grid sides, hand them to the
// coordinator, answer 202 with the initial progress snapshot. Submission
// is control-plane work (compiling inline schemas is parse-cheap relative
// to matching) and does not take a match slot; the shards take one each
// when they run.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req JobSubmitRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		writeError(w, http.StatusBadRequest, "need at least one source and one target schema")
		return
	}
	if cells := len(req.Sources) * len(req.Targets); cells > s.cfg.MaxJobCells {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("grid of %d cells exceeds the %d-cell job limit", cells, s.cfg.MaxJobCells))
		return
	}
	eng, err := s.engineFor(req.matchOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sources, srcIDs, status, err := s.resolveJobRefs(r.Context(), req.Sources, "sources", eng)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	targets, tgtIDs, status, err := s.resolveJobRefs(r.Context(), req.Targets, "targets", eng)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	job, err := s.jobs.Submit(obs.NewSpanID(), jobs.Spec{
		Sources:   sources,
		Targets:   targets,
		Engine:    eng,
		SourceIDs: srcIDs,
		TargetIDs: tgtIDs,
	})
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, JobStatusResponse{Progress: job.Progress(false)})
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	resp := JobStatusResponse{Progress: job.Progress(r.URL.Query().Get("shards") == "1")}
	if r.URL.Query().Get("trace") == "1" {
		// Available once the job is terminal; omitted while it runs.
		resp.Trace = job.Trace()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancelJob implements DELETE /v1/jobs/{id}: an active job is
// cancelled (and retained for a final poll), a terminal job is forgotten.
// Either way the body is the job's final progress.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	p, err := s.jobs.Delete(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, JobStatusResponse{Progress: p})
}

// handleJobResults streams the job's completed cells as NDJSON in cell
// order, one JobResultLine per cell, following the job live until it
// reaches a terminal state, then a JobResultTrailer. ?after=N skips the
// first N cells — a disconnected client resumes by passing the count of
// report lines it already holds.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	cursor := 0
	if after := r.URL.Query().Get("after"); after != "" {
		cursor, err = strconv.Atoi(after)
		if err != nil || cursor < 0 {
			writeError(w, http.StatusBadRequest, "after must be a non-negative cell count")
			return
		}
	}
	nt := len(job.Spec().Targets)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	for {
		// Grab the update channel BEFORE snapshotting: a transition landing
		// between snapshot and wait still closes this channel, so the wait
		// below cannot miss it.
		updated := job.Updated()
		results, status, errMsg := job.ResultsFrom(cursor)
		for _, raw := range results {
			line, merr := json.Marshal(JobResultLine{
				Cell: cursor, Source: cursor / nt, Target: cursor % nt, Report: raw,
			})
			if merr != nil {
				return
			}
			if _, werr := w.Write(append(line, '\n')); werr != nil {
				return // client gone; it resumes with ?after=
			}
			cursor++
		}
		if len(results) > 0 {
			_ = rc.Flush()
		}
		if status.Terminal() {
			// Everything acknowledged is streamed (a failed/cancelled job
			// stops at its ready frontier); close with the trailer.
			p := job.Progress(false)
			trailer, _ := json.Marshal(JobResultTrailer{
				Done: true, Status: status, Error: errMsg, Cells: p.CompletedCells,
			})
			_, _ = w.Write(append(trailer, '\n'))
			_ = rc.Flush()
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}
