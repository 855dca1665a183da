package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qmatch"
	"qmatch/internal/obs"
)

// xsdFor builds a small schema whose root carries n child elements, so
// node counts (and shard costs) are controllable.
func xsdFor(t *testing.T, name string, n int) *qmatch.CompiledSchema {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	fmt.Fprintf(&b, `<xs:element name=%q><xs:complexType><xs:sequence>`, name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<xs:element name="%s_f%d" type="xs:string"/>`, name, i)
	}
	b.WriteString(`</xs:sequence></xs:complexType></xs:element></xs:schema>`)
	s, err := qmatch.ParseSchemaString(b.String())
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	cs, err := qmatch.Compile(s)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return cs
}

func testEngine(t *testing.T) *qmatch.Engine {
	t.Helper()
	e, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// awaitTerminal blocks until the job reaches a terminal state. The update
// channel is grabbed before the progress snapshot, so a transition between
// the two closes the grabbed channel instead of being missed.
func awaitTerminal(j *Job) (Progress, error) {
	deadline := time.After(30 * time.Second)
	for {
		ch := j.Updated()
		p := j.Progress(false)
		if p.Status.Terminal() {
			return p, nil
		}
		select {
		case <-ch:
		case <-deadline:
			return p, fmt.Errorf("job %s not terminal: %+v", j.ID(), p)
		}
	}
}

func waitTerminal(t *testing.T, j *Job) Progress {
	t.Helper()
	p, err := awaitTerminal(j)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionCoversGridOnce(t *testing.T) {
	sources := []*qmatch.CompiledSchema{xsdFor(t, "a", 3), xsdFor(t, "b", 7)}
	targets := []*qmatch.CompiledSchema{xsdFor(t, "c", 2), xsdFor(t, "d", 5), xsdFor(t, "e", 1)}
	for _, budget := range []int64{0, 1, 25, 1 << 20} {
		shards := Partition(sources, targets, budget)
		covered := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Fatalf("budget %d: shard %d has index %d", budget, i, sh.Index)
			}
			if sh.Start != covered {
				t.Fatalf("budget %d: shard %d starts at %d, want %d", budget, i, sh.Start, covered)
			}
			if sh.Cells() < 1 {
				t.Fatalf("budget %d: empty shard %d", budget, i)
			}
			covered = sh.End
		}
		if covered != len(sources)*len(targets) {
			t.Fatalf("budget %d: covered %d of %d cells", budget, covered, len(sources)*len(targets))
		}
	}
	// A tiny budget forces one cell per shard.
	if got := len(Partition(sources, targets, 1)); got != 6 {
		t.Fatalf("budget 1: %d shards, want 6", got)
	}
	// A huge budget packs everything into one shard.
	if got := len(Partition(sources, targets, 1<<30)); got != 1 {
		t.Fatalf("huge budget: %d shards, want 1", got)
	}
}

func TestJobCompletesAndMatchesSync(t *testing.T) {
	eng := testEngine(t)
	m := New(Config{ShardCost: 1}) // one cell per shard
	defer m.Close()
	sources := []*qmatch.CompiledSchema{xsdFor(t, "person", 4), xsdFor(t, "order", 3)}
	targets := []*qmatch.CompiledSchema{xsdFor(t, "personnel", 4), xsdFor(t, "invoice", 2)}
	j, err := m.Submit("j1", Spec{Sources: sources, Targets: targets, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	p := waitTerminal(t, j)
	if p.Status != StatusCompleted {
		t.Fatalf("status %s (err %q), want completed", p.Status, p.Error)
	}
	if p.CompletedCells != 4 || p.ShardsDone != 4 {
		t.Fatalf("progress %+v, want 4 cells / 4 shards done", p)
	}
	results, _, _ := j.ResultsFrom(0)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	// Every cell's bytes must equal the synchronous match (the compiled
	// and parse paths are pinned bit-identical).
	want, err := eng.MatchAll(context.Background(),
		[]*qmatch.Schema{sources[0].Schema(), sources[1].Schema()},
		[]*qmatch.Schema{targets[0].Schema(), targets[1].Schema()})
	if err != nil {
		t.Fatal(err)
	}
	for k, raw := range results {
		wantRaw, err := json.Marshal(want[k/2][k%2])
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(wantRaw) {
			t.Fatalf("cell %d differs from synchronous MatchAll:\njob:  %s\nsync: %s", k, raw, wantRaw)
		}
	}
	// The job trace carries the job span plus one shard span per shard.
	mt := j.Trace()
	if mt == nil {
		t.Fatal("no job trace")
	}
	var jobSpans, shardSpans int
	for _, sp := range mt.Spans {
		switch sp.Phase {
		case obs.PhaseJob:
			jobSpans++
		case obs.PhaseShard:
			shardSpans++
		}
	}
	if jobSpans != 1 || shardSpans != 4 {
		t.Fatalf("trace has %d job / %d shard spans, want 1/4", jobSpans, shardSpans)
	}
}

// A panic in a shard fails its job at once, with the panic text in
// Progress.Error: the shard is not run again, the job's other shards are
// never admitted, and the worker lives on to run the next job.
func TestShardPanicFailsJob(t *testing.T) {
	eng := testEngine(t)
	var admitted atomic.Int64
	var panicking atomic.Bool
	panicking.Store(true)
	m := New(Config{ShardCost: 1, Workers: 1,
		Gate: func(ctx context.Context) (func(), error) {
			admitted.Add(1)
			if panicking.Load() {
				panic("worker crashed mid-shard")
			}
			return func() {}, nil
		}})
	defer m.Close()
	spec := Spec{
		Sources: []*qmatch.CompiledSchema{xsdFor(t, "a", 2)},
		Targets: []*qmatch.CompiledSchema{xsdFor(t, "b", 2), xsdFor(t, "c", 2)},
		Engine:  eng,
	}
	j, err := m.Submit("panic", spec)
	if err != nil {
		t.Fatal(err)
	}
	p := waitTerminal(t, j)
	if p.Status != StatusFailed {
		t.Fatalf("status %s, want failed", p.Status)
	}
	if n := admitted.Load(); n != 1 {
		t.Fatalf("gate ran %d times, want 1: the panicking shard once, its sibling never", n)
	}
	if !strings.Contains(p.Error, "shard 0") || !strings.Contains(p.Error, "worker crashed mid-shard") {
		t.Fatalf("error %q does not name the shard and the panic", p.Error)
	}
	full := j.Progress(true)
	if full.Shards[0].Status != ShardFailed || full.Shards[1].Status != ShardPending {
		t.Fatalf("shard states %s/%s, want failed/pending", full.Shards[0].Status, full.Shards[1].Status)
	}
	if j.Trace() == nil {
		t.Fatal("failed job should still expose its trace")
	}

	panicking.Store(false)
	j, err = m.Submit("after-panic", spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := waitTerminal(t, j); p.Status != StatusCompleted {
		t.Fatalf("job after the panic: %s (%s), want completed", p.Status, p.Error)
	}
}

// blockingGate holds every shard at admission until its job's context
// ends, signalling entered (without blocking) as each shard arrives.
func blockingGate(entered chan struct{}) func(context.Context) (func(), error) {
	return func(ctx context.Context) (func(), error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func TestCancelMidShard(t *testing.T) {
	eng := testEngine(t)
	entered := make(chan struct{}, 8)
	m := New(Config{Gate: blockingGate(entered), ShardCost: 1})
	defer m.Close()
	j, err := m.Submit("cancelme", Spec{
		Sources: []*qmatch.CompiledSchema{xsdFor(t, "a", 3)},
		Targets: []*qmatch.CompiledSchema{xsdFor(t, "b", 3), xsdFor(t, "c", 3)},
		Engine:  eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // at least one shard is genuinely mid-flight
	j.Cancel()
	p := waitTerminal(t, j)
	if p.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", p.Status)
	}
	if p.Finished == nil {
		t.Fatal("cancelled job has no finished time")
	}
	// Cancel is idempotent and the status stays cancelled.
	j.Cancel()
	if got := j.Progress(false).Status; got != StatusCancelled {
		t.Fatalf("status after double cancel: %s", got)
	}
	if j.Trace() == nil {
		t.Fatal("cancelled job should still expose its trace")
	}
}

func TestStoreEvictsCompletedJobsLRU(t *testing.T) {
	eng := testEngine(t)
	m := New(Config{MaxJobs: 2})
	defer m.Close()
	src := []*qmatch.CompiledSchema{xsdFor(t, "a", 2)}
	tgt := []*qmatch.CompiledSchema{xsdFor(t, "b", 2)}
	for i := 0; i < 3; i++ {
		j, err := m.Submit(fmt.Sprintf("evict-%d", i), Spec{Sources: src, Targets: tgt, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		// Deterministic LRU order: each job is touched after completion.
		if _, err := m.Get(j.ID()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(m.List()); n != 2 {
		t.Fatalf("store holds %d jobs, want 2 (MaxJobs)", n)
	}
	if _, err := m.Get("evict-0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job should be evicted, got err %v", err)
	}
	for _, id := range []string{"evict-1", "evict-2"} {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("job %s evicted prematurely: %v", id, err)
		}
	}
	// Touching evict-1 makes evict-2 the LRU victim for the next eviction.
	if _, err := m.Get("evict-1"); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit("evict-3", Spec{Sources: src, Targets: tgt, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if _, err := m.Get("evict-2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim should be evict-2, got err %v", err)
	}
	if _, err := m.Get("evict-1"); err != nil {
		t.Fatalf("recently touched job evicted: %v", err)
	}
}

func TestActiveJobsNeverEvicted(t *testing.T) {
	eng := testEngine(t)
	m := New(Config{Gate: blockingGate(make(chan struct{})), MaxJobs: 1})
	defer m.Close()
	src := []*qmatch.CompiledSchema{xsdFor(t, "a", 2)}
	tgt := []*qmatch.CompiledSchema{xsdFor(t, "b", 2)}
	// Two active (blocked) jobs exceed MaxJobs but must both survive.
	j1, err := m.Submit("active-1", Spec{Sources: src, Targets: tgt, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit("active-2", Spec{Sources: src, Targets: tgt, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	j1.Cancel()
	waitTerminal(t, j1)
	if _, err := m.Get("active-2"); err != nil {
		t.Fatalf("active job evicted: %v", err)
	}
	j2.Cancel()
}

func TestSubmitValidation(t *testing.T) {
	eng := testEngine(t)
	m := New(Config{})
	src := []*qmatch.CompiledSchema{xsdFor(t, "a", 2)}
	if _, err := m.Submit("empty", Spec{Sources: src, Engine: eng}); err == nil {
		t.Fatal("empty targets accepted")
	}
	if _, err := m.Submit("no-engine", Spec{Sources: src, Targets: src}); err == nil {
		t.Fatal("spec without an engine accepted")
	}
	if _, err := m.Submit("ok", Spec{Sources: src, Targets: src, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("ok", Spec{Sources: src, Targets: src, Engine: eng}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	m.Close()
	if _, err := m.Submit("late", Spec{Sources: src, Targets: src, Engine: eng}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestConcurrentJobsHammer(t *testing.T) {
	eng := testEngine(t)
	reg := obs.NewRegistry()
	m := New(Config{ShardCost: 1, Workers: 4, Metrics: reg, MaxJobs: 4})
	defer m.Close()
	src := []*qmatch.CompiledSchema{xsdFor(t, "a", 3), xsdFor(t, "b", 2)}
	tgt := []*qmatch.CompiledSchema{xsdFor(t, "c", 3), xsdFor(t, "d", 2)}
	const jobs = 12
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(fmt.Sprintf("hammer-%d", i), Spec{Sources: src, Targets: tgt, Engine: eng})
			if err != nil {
				errs <- err
				return
			}
			if i%3 == 0 {
				j.Cancel()
				return
			}
			p, err := awaitTerminal(j)
			if err != nil {
				errs <- err
				return
			}
			if p.Status != StatusCompleted {
				errs <- fmt.Errorf("job %s: %s (%s)", j.ID(), p.Status, p.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v, _ := reg.Value(MetricJobsActive); v != 0 {
		t.Fatalf("active gauge %d after all jobs terminal, want 0", v)
	}
}
