// Package jobs implements the asynchronous batch-match subsystem behind
// qmatchd's /v1/jobs endpoints: a coordinator that partitions a large
// sources×targets MatchAll grid into shards sized off the compiled
// schemas' node counts, a fixed pool of worker goroutines that runs each
// shard once through the existing Engine, and a bounded job store that
// clients poll for per-shard progress and stream completed cells from,
// resumable by cell cursor.
//
// A submitted job owns a context; cancelling the job (DELETE
// /v1/jobs/{id}) cancels that context and the existing Engine
// cancellation plumbing stops in-flight pair-table fills between levels.
// Matching is deterministic and the workers are goroutines of this
// process, so a shard is never retried: a shard that fails (in practice,
// a recovered panic) fails the whole job at once. Completed jobs are
// retained for polling until the store's LRU bound evicts them.
//
// Results are pinned to the synchronous path: each cell's report is
// serialized with encoding/json exactly as Engine.MatchAll reports are,
// so a streamed job result is byte-identical (per report, modulo the
// envelope) to the same cell of a synchronous /v1/matchall response.
// See DESIGN.md §12.
package jobs

import (
	"time"

	"qmatch"
)

// Status is the lifecycle state of a job. Transitions are monotonic:
// pending → running → one of the three terminal states.
type Status string

const (
	// StatusPending marks a job accepted but with no shard dispatched yet.
	StatusPending Status = "pending"
	// StatusRunning marks a job with at least one shard dispatched.
	StatusRunning Status = "running"
	// StatusCompleted marks a job whose every cell has a result.
	StatusCompleted Status = "completed"
	// StatusFailed marks a job aborted because a shard failed;
	// Progress.Error names the shard and the cause.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job aborted by Cancel (or manager shutdown).
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusCancelled
}

// ShardStatus is the lifecycle state of one shard of a job's grid.
type ShardStatus string

const (
	// ShardPending marks a shard queued for a worker.
	ShardPending ShardStatus = "pending"
	// ShardRunning marks a shard a worker has taken.
	ShardRunning ShardStatus = "running"
	// ShardDone marks a shard whose results were acknowledged.
	ShardDone ShardStatus = "done"
	// ShardFailed marks a shard that failed, or was cut short because its
	// job ended first.
	ShardFailed ShardStatus = "failed"
)

// Shard is one contiguous row-major range of the job's cell grid. Cell k
// of a job with T targets matches sources[k/T] against targets[k%T];
// a shard covers cells [Start, End).
type Shard struct {
	// Index is the shard's position in the job's shard list.
	Index int `json:"index"`
	// Start is the first cell index the shard covers.
	Start int `json:"start"`
	// End is one past the last cell index the shard covers.
	End int `json:"end"`
	// Cost is the shard's pair-table cost: the sum over its cells of
	// sourceNodes×targetNodes — what the partitioner balanced.
	Cost int64 `json:"cost"`
}

// Cells returns the number of cells the shard covers.
func (s Shard) Cells() int { return s.End - s.Start }

// Spec describes one job to Submit: the compiled grid sides and the
// engine to run them through (nil selects the manager's default). The
// schemas are compiled — the parse+intern work happened at submission
// (or registration) time, so shards go straight to the pair-table fill.
type Spec struct {
	Sources []*qmatch.CompiledSchema
	Targets []*qmatch.CompiledSchema
	// Engine overrides the manager's default Engine for this job
	// (per-request algorithm/threshold/weight overrides resolve to a
	// pooled Engine in the serving layer).
	Engine *qmatch.Engine
	// SourceIDs/TargetIDs are optional display names, aligned with
	// Sources/Targets (registry ids, file names); purely informational.
	SourceIDs []string
	TargetIDs []string
}

// Partition splits the sources×targets grid into contiguous row-major
// shards, packing cells until a shard's cost (sum of sourceNodes×
// targetNodes per cell) would exceed budget. Every shard holds at least
// one cell, so a single cell dearer than the budget still gets its own
// shard. A budget <= 0 yields one shard for the whole grid.
func Partition(sources, targets []*qmatch.CompiledSchema, budget int64) []Shard {
	nt := len(targets)
	total := len(sources) * nt
	if total == 0 {
		return nil
	}
	if budget <= 0 {
		var cost int64
		for k := 0; k < total; k++ {
			cost += int64(sources[k/nt].Size()) * int64(targets[k%nt].Size())
		}
		return []Shard{{Index: 0, Start: 0, End: total, Cost: cost}}
	}
	var shards []Shard
	start := 0
	var cost int64
	for k := 0; k < total; k++ {
		c := int64(sources[k/nt].Size()) * int64(targets[k%nt].Size())
		if k > start && cost+c > budget {
			shards = append(shards, Shard{Index: len(shards), Start: start, End: k, Cost: cost})
			start, cost = k, 0
		}
		cost += c
	}
	return append(shards, Shard{Index: len(shards), Start: start, End: total, Cost: cost})
}

// ShardProgress is the externally visible state of one shard, as reported
// by Progress.
type ShardProgress struct {
	Shard
	Status ShardStatus `json:"status"`
}

// Progress is a point-in-time snapshot of one job, safe to serialize.
type Progress struct {
	ID      string    `json:"id"`
	Status  Status    `json:"status"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	// Started/Finished are nil until the job starts running / reaches a
	// terminal state.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Sources/Targets are the grid dimensions; Cells = Sources×Targets.
	Sources int `json:"sources"`
	Targets int `json:"targets"`
	Cells   int `json:"cells"`
	// CompletedCells counts cells with an acknowledged result.
	CompletedCells int `json:"completedCells"`
	// ShardsTotal/ShardsDone summarize shard progress; Shards carries the
	// per-shard detail when requested.
	ShardsTotal int             `json:"shardsTotal"`
	ShardsDone  int             `json:"shardsDone"`
	Shards      []ShardProgress `json:"shards,omitempty"`
	// SourceIDs/TargetIDs echo the submission's display names, when given.
	SourceIDs []string `json:"sourceIds,omitempty"`
	TargetIDs []string `json:"targetIds,omitempty"`
}
