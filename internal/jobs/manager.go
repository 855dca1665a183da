package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"qmatch/internal/obs"
)

// Metric names of the job subsystem, maintained in the registry the
// manager is configured with (qmatchd passes its HTTP registry, so one
// /metrics scrape carries request, job and runtime series).
const (
	MetricJobs        = "qmatchd_jobs_total"       // counter, label status=completed|failed|cancelled
	MetricJobsActive  = "qmatchd_jobs_active"      // gauge: non-terminal jobs
	MetricJobShards   = "qmatchd_job_shards_total" // counter: acknowledged shards
	MetricJobCells    = "qmatchd_job_cells_total"  // counter: completed cells
	MetricJobDuration = "qmatchd_job_duration_seconds"
)

// ErrNotFound is returned by Get and Delete for an unknown job id —
// never submitted, or already evicted from the bounded store.
var ErrNotFound = errors.New("jobs: job not found")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Config tunes a Manager. The zero value is usable: every knob falls
// back to the documented default.
type Config struct {
	// Workers bounds the shard workers (default GOMAXPROCS).
	Workers int
	// ShardCost is the pair-table cost budget of one shard, in
	// sourceNodes×targetNodes units (default 1<<20 — a protein-sized
	// ~867k-cell pair table still fits one shard). See Partition.
	ShardCost int64
	// MaxJobs bounds terminal jobs retained for polling; beyond it the
	// least-recently-accessed terminal job is evicted (default 64).
	// Active jobs are never evicted.
	MaxJobs int
	// Gate, when non-nil, admits every shard: workers call it with the
	// job's context before matching the shard's cells and the returned
	// release after. qmatchd wires the server's concurrency limiter here
	// so job shards share match slots fairly with synchronous requests.
	Gate func(ctx context.Context) (release func(), err error)
	// Metrics receives the job-subsystem series; nil disables them.
	Metrics *obs.Registry
	// Logger receives job lifecycle events; nil disables logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardCost == 0 {
		c.ShardCost = 1 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	return c
}

// shardState is the manager-internal state of one shard.
type shardState struct {
	Shard
	status ShardStatus
	// span is the open trace span while the shard runs.
	span *obs.ActiveSpan
}

// Job is one submitted batch match. All state is guarded by mu; readers
// take snapshots via Progress and ResultsFrom.
type Job struct {
	id      string
	spec    Spec
	created time.Time
	mgr     *Manager
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	updated  chan struct{} // closed and replaced on every state change
	status   Status
	errMsg   string
	started  time.Time
	finished time.Time
	shards   []shardState
	done     int // acknowledged shards
	// results holds one serialized report per cell; ready is the
	// contiguous-prefix frontier streamed to clients.
	results        []json.RawMessage
	ready          int
	completedCells int
	trace          *obs.Trace
	jobSpan        *obs.ActiveSpan
	finalTrace     *obs.MatchTrace
	access         time.Time // LRU clock for the terminal-job store
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's submission spec (treat as read-only).
func (j *Job) Spec() *Spec { return &j.spec }

// task is one dispatchable unit of work.
type task struct {
	job   *Job
	shard int
}

// Manager is the job coordinator: it partitions submitted grids into
// shards, feeds them in FIFO order to a fixed pool of worker goroutines
// that run each shard once, and retains terminal jobs in a bounded LRU
// store. Construct with New; Close stops the workers and cancels every
// active job.
type Manager struct {
	cfg Config
	wg  sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	jobs   map[string]*Job
	closed bool

	active     *obs.Gauge
	shardsDone *obs.Counter
	cellsDone  *obs.Counter
	jobDur     *obs.Histogram
}

// New builds a Manager and starts its worker pool.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, jobs: make(map[string]*Job)}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Metrics != nil {
		m.active = cfg.Metrics.Gauge(MetricJobsActive)
		m.shardsDone = cfg.Metrics.Counter(MetricJobShards)
		m.cellsDone = cfg.Metrics.Counter(MetricJobCells)
		m.jobDur = cfg.Metrics.Histogram(MetricJobDuration, nil)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close stops accepting submissions, cancels every active job (they
// finish as cancelled) and waits for the workers to exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.cond.Broadcast()
	m.wg.Wait()
}

// Submit accepts one job, partitions its grid and queues the shards.
// The returned Job is live immediately; poll it with Progress.
func (m *Manager) Submit(id string, spec Spec) (*Job, error) {
	if len(spec.Sources) == 0 || len(spec.Targets) == 0 {
		return nil, fmt.Errorf("jobs: need at least one source and one target schema")
	}
	if spec.Engine == nil {
		return nil, fmt.Errorf("jobs: spec has no engine")
	}
	shards := Partition(spec.Sources, spec.Targets, m.cfg.ShardCost)
	cells := len(spec.Sources) * len(spec.Targets)
	j := &Job{
		id:      id,
		spec:    spec,
		created: time.Now(),
		mgr:     m,
		updated: make(chan struct{}),
		status:  StatusPending,
		shards:  make([]shardState, len(shards)),
		results: make([]json.RawMessage, cells),
		trace:   obs.NewTrace(),
	}
	j.trace.SetID(id)
	j.jobSpan = j.trace.StartSpan(obs.PhaseJob)
	j.jobSpan.SetNodes(len(spec.Sources), len(spec.Targets))
	j.jobSpan.SetCells(int64(cells))
	j.trace.SetParent(j.jobSpan)
	for i, sh := range shards {
		j.shards[i] = shardState{Shard: sh, status: ShardPending}
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		return nil, ErrClosed
	}
	if _, dup := m.jobs[id]; dup {
		m.mu.Unlock()
		j.cancel()
		return nil, fmt.Errorf("jobs: duplicate job id %s", id)
	}
	m.jobs[id] = j
	for i := range shards {
		m.queue = append(m.queue, task{job: j, shard: i})
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.active.Add(1) // nil-safe
	if m.cfg.Logger != nil {
		m.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "job submitted",
			slog.String("job", id), slog.Int("sources", len(spec.Sources)),
			slog.Int("targets", len(spec.Targets)), slog.Int("cells", cells),
			slog.Int("shards", len(shards)))
	}
	return j, nil
}

// Get returns a job by id, refreshing its LRU clock, or ErrNotFound.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	j.access = time.Now()
	j.mu.Unlock()
	return j, nil
}

// List snapshots every retained job's progress (no shard detail), newest
// submission first.
func (m *Manager) List() []Progress {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Progress, len(jobs))
	for i, j := range jobs {
		out[i] = j.Progress(false)
	}
	// Newest first; ties (same create tick) break by id for determinism.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && less(out[k-1], out[k]); k-- {
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
	return out
}

func less(a, b Progress) bool {
	if !a.Created.Equal(b.Created) {
		return a.Created.Before(b.Created)
	}
	return a.ID < b.ID
}

// Delete removes a terminal job from the store (polling it afterwards is
// ErrNotFound). An active job is cancelled instead and retained for a
// final poll. The returned progress reflects the job's final state.
func (m *Manager) Delete(id string) (Progress, error) {
	j, err := m.Get(id)
	if err != nil {
		return Progress{}, err
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	j.mu.Unlock()
	if !terminal {
		j.Cancel()
		return j.Progress(false), nil
	}
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
	return j.Progress(false), nil
}

// next blocks until a task is available or the manager closes.
func (m *Manager) next() (task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return task{}, false
	}
	t := m.queue[0]
	m.queue = m.queue[1:]
	return t, true
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		t, ok := m.next()
		if !ok {
			return
		}
		m.runShard(t)
	}
}

// runShard runs one shard once: admit it through the gate, match its
// cells and record the outcome.
func (m *Manager) runShard(t task) {
	j := t.job
	j.mu.Lock()
	if j.status.Terminal() {
		// Cancelled or failed while this shard waited in the queue.
		j.mu.Unlock()
		return
	}
	if j.status == StatusPending {
		j.status = StatusRunning
		j.started = time.Now()
		j.broadcastLocked()
	}
	ss := &j.shards[t.shard]
	ss.status = ShardRunning
	ss.span = j.jobSpan.Child(obs.PhaseShard)
	ss.span.SetCells(int64(ss.Cells()))
	ss.span.SetLevel(ss.Index + 1)
	shard := ss.Shard
	j.mu.Unlock()

	results, err := m.execute(j, shard)
	m.ack(j, shard, results, err)
}

// execute admits the shard through the gate and matches its cells through
// the job's Engine, serializing each report with encoding/json exactly as
// a synchronous MatchAll response embeds it. A panic is recovered into
// the returned error, so it costs the job, not the process.
func (m *Manager) execute(j *Job, shard Shard) (results []json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if gate := m.cfg.Gate; gate != nil {
		release, err := gate(j.ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	nt := len(j.spec.Targets)
	results = make([]json.RawMessage, 0, shard.Cells())
	for k := shard.Start; k < shard.End; k++ {
		rep, err := j.spec.Engine.MatchCompiledContext(j.ctx, j.spec.Sources[k/nt], j.spec.Targets[k%nt])
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		results = append(results, raw)
	}
	return results, nil
}

// ack records a shard's outcome. An error fails the job at once and
// cancels its other shards; a shard whose job already ended (cancelled,
// or failed by another shard) leaves the job as it is.
func (m *Manager) ack(j *Job, shard Shard, results []json.RawMessage, err error) {
	j.mu.Lock()
	ss := &j.shards[shard.Index]
	if j.status.Terminal() {
		// Ending the job closed its trace, this shard's span included.
		ss.status = ShardFailed
		j.mu.Unlock()
		return
	}
	if err != nil {
		ss.status = ShardFailed
		j.errMsg = fmt.Sprintf("shard %d: %v", shard.Index, err)
		j.endLocked(StatusFailed)
		j.mu.Unlock()
		j.cancel()
		m.finalize(j, StatusFailed)
		return
	}
	ss.status = ShardDone
	ss.span.End()
	ss.span = nil
	copy(j.results[shard.Start:shard.End], results)
	j.completedCells += shard.Cells()
	for j.ready < len(j.results) && j.results[j.ready] != nil {
		j.ready++
	}
	j.done++
	finished := j.done == len(j.shards)
	if finished {
		j.endLocked(StatusCompleted)
	} else {
		j.broadcastLocked()
	}
	j.mu.Unlock()
	m.shardsDone.Inc()
	m.cellsDone.Add(int64(shard.Cells()))
	if finished {
		m.finalize(j, StatusCompleted)
	}
}

// endLocked moves the job to a terminal status, closes its trace (a shard
// span still open is marked partial) and wakes every waiter. Callers hold
// j.mu, and call finalize once they release it.
func (j *Job) endLocked(status Status) {
	for i := range j.shards {
		if sp := j.shards[i].span; sp != nil {
			sp.MarkPartial()
			sp.End()
			j.shards[i].span = nil
		}
	}
	j.jobSpan.End()
	j.status = status
	j.finished = time.Now()
	j.finalTrace = j.trace.Finish()
	j.broadcastLocked()
}

// finalize records terminal metrics/logs and evicts over-bound terminal
// jobs from the store (LRU by last access).
func (m *Manager) finalize(j *Job, status Status) {
	m.active.Add(-1) // nil-safe
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Counter(obs.LabeledName(MetricJobs, "status", string(status))).Inc()
	}
	j.mu.Lock()
	elapsed := j.finished.Sub(j.created)
	cells := j.completedCells
	errMsg := j.errMsg
	j.mu.Unlock()
	m.jobDur.Observe(elapsed.Seconds())
	if m.cfg.Logger != nil {
		level := slog.LevelInfo
		if status != StatusCompleted {
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{slog.String("job", j.id), slog.Int("cells", cells),
			slog.Duration("elapsed", elapsed)}
		if errMsg != "" {
			attrs = append(attrs, slog.String("error", errMsg))
		}
		m.cfg.Logger.LogAttrs(context.Background(), level, "job "+string(status), attrs...)
	}
	m.evict()
}

// evict drops least-recently-accessed terminal jobs beyond MaxJobs.
func (m *Manager) evict() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		terminal := 0
		var oldest *Job
		var oldestAt time.Time
		for _, j := range m.jobs {
			j.mu.Lock()
			t := j.status.Terminal()
			at := j.access
			if at.IsZero() {
				at = j.created
			}
			j.mu.Unlock()
			if !t {
				continue
			}
			terminal++
			if oldest == nil || at.Before(oldestAt) {
				oldest, oldestAt = j, at
			}
		}
		if terminal <= m.cfg.MaxJobs || oldest == nil {
			return
		}
		delete(m.jobs, oldest.id)
	}
}

// Cancel moves the job to cancelled (no-op when already terminal) and
// cancels its context; a shard waiting at the gate gives up its wait, and
// a running one aborts its fill through the Engine's cancellation
// plumbing.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.endLocked(StatusCancelled)
	j.mu.Unlock()
	j.cancel()
	j.mgr.finalize(j, StatusCancelled)
}

// Progress snapshots the job; withShards includes per-shard detail.
func (j *Job) Progress(withShards bool) Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := Progress{
		ID:             j.id,
		Status:         j.status,
		Error:          j.errMsg,
		Created:        j.created,
		Sources:        len(j.spec.Sources),
		Targets:        len(j.spec.Targets),
		Cells:          len(j.results),
		CompletedCells: j.completedCells,
		ShardsTotal:    len(j.shards),
		ShardsDone:     j.done,
		SourceIDs:      j.spec.SourceIDs,
		TargetIDs:      j.spec.TargetIDs,
	}
	if !j.started.IsZero() {
		t := j.started
		p.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		p.Finished = &t
	}
	if withShards {
		p.Shards = make([]ShardProgress, len(j.shards))
		for i := range j.shards {
			p.Shards[i] = ShardProgress{
				Shard:  j.shards[i].Shard,
				Status: j.shards[i].status,
			}
		}
	}
	return p
}

// Trace returns the job's finished hierarchical trace (job span with one
// child span per started shard), or nil while the job is still active.
func (j *Job) Trace() *obs.MatchTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finalTrace
}

// broadcastLocked wakes every Updated waiter. Callers hold j.mu.
func (j *Job) broadcastLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// Updated returns a channel closed on the job's next state change
// (shard completion, status transition) — the poll/stream wait primitive.
func (j *Job) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.updated
}

// ResultsFrom returns the contiguous run of serialized cell reports
// starting at cell index from (ending at the first not-yet-completed
// cell), together with the job's current status and error. The returned
// slice aliases the job's immutable result buffers — do not mutate.
func (j *Job) ResultsFrom(from int) ([]json.RawMessage, Status, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= j.ready {
		return nil, j.status, j.errMsg
	}
	return j.results[from:j.ready], j.status, j.errMsg
}
