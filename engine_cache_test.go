package qmatch_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"qmatch"
)

// cacheStats is a snapshot of an Engine's label-score cache counters, read
// from its metrics registry.
type cacheStats struct{ Hits, Misses, Entries, Evictions int64 }

func cacheStatsOf(t *testing.T, e *qmatch.Engine) cacheStats {
	t.Helper()
	var s cacheStats
	for name, v := range map[string]*int64{
		qmatch.MetricCacheHits: &s.Hits, qmatch.MetricCacheMisses: &s.Misses,
		qmatch.MetricCacheEntries: &s.Entries, qmatch.MetricCacheEvictions: &s.Evictions,
	} {
		var ok bool
		if *v, ok = e.MetricValue(name); !ok {
			t.Fatalf("engine registry has no %s", name)
		}
	}
	return s
}

// A first hybrid match fills the Engine's label-score cache (misses), a
// repeat of the same pair answers every label from it (hits only).
func TestEngineCacheHitCounters(t *testing.T) {
	e, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if s := cacheStatsOf(t, e); s != (cacheStats{}) {
		t.Fatalf("fresh engine cache stats = %+v, want zero", s)
	}
	pair := enginePairs()[0]
	e.Match(pair[0], pair[1])
	cold := cacheStatsOf(t, e)
	if cold.Misses == 0 || cold.Entries == 0 {
		t.Fatalf("cold match stats = %+v, want misses and entries", cold)
	}
	e.Match(pair[0], pair[1])
	warm := cacheStatsOf(t, e)
	if warm.Hits <= cold.Hits {
		t.Fatalf("warm match added no hits: %+v -> %+v", cold, warm)
	}
	if warm.Misses != cold.Misses {
		t.Fatalf("warm match of an identical pair missed: %+v -> %+v", cold, warm)
	}
}

// The cache is shared by every worker of every concurrent call; run a
// MatchAll grid plus parallel Match calls under -race and check the
// counters stay coherent.
func TestEngineCacheConcurrent(t *testing.T) {
	e, err := qmatch.NewEngine(qmatch.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs()
	sources := make([]*qmatch.Schema, 0, len(pairs))
	targets := make([]*qmatch.Schema, 0, len(pairs))
	for _, p := range pairs {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	if _, err := e.MatchAll(context.Background(), sources, targets); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, p := range pairs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Match(p[0], p[1])
		}()
	}
	wg.Wait()
	s := cacheStatsOf(t, e)
	if s.Misses == 0 || s.Entries == 0 {
		t.Fatalf("stats after concurrent batch = %+v, want misses and entries", s)
	}
	// The grid revisits each vocabulary len(sources)+1 times; the repeats
	// must come out of the cache.
	if s.Hits == 0 {
		t.Fatalf("stats after concurrent batch = %+v, want cache hits", s)
	}
}

func TestWithLabelCacheSize(t *testing.T) {
	if _, err := qmatch.NewEngine(qmatch.WithLabelCacheSize(-1)); err == nil {
		t.Fatal("NewEngine accepted a negative label cache size")
	}
	// A tiny bound only affects retention, never scores: reports stay
	// bit-identical to the default engine's.
	small, err := qmatch.NewEngine(qmatch.WithLabelCacheSize(32))
	if err != nil {
		t.Fatal(err)
	}
	def, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range enginePairs() {
		got := small.Match(p[0], p[1])
		want := def.Match(p[0], p[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s vs %s: tiny-cache report differs from default", p[0].Name(), p[1].Name())
		}
	}
	if s := cacheStatsOf(t, small); s.Evictions == 0 {
		t.Errorf("tiny cache stats = %+v, want evictions", s)
	}
}
