package core

import (
	"runtime"
	"testing"

	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// A Hybrid keeps no pair table once a call returns: after Match and
// TreeScore on 8 distinct 80×1000 pairs (a 9 MB table each), the
// collected heap holds little more than it did before them. Two GCs empty
// the arena pool, so only tables the Hybrid itself pins can remain.
func TestHybridRetainsNoTables(t *testing.T) {
	h := NewHybrid(nil)
	pairs := make([][2]*xmltree.Node, 8)
	for i := range pairs {
		pairs[i] = [2]*xmltree.Node{
			synth.Generate(synth.Config{Seed: int64(100 + i), Elements: 80, MaxDepth: 6, MaxChildren: 8}),
			synth.Generate(synth.Config{Seed: int64(200 + i), Elements: 1000, MaxDepth: 7, MaxChildren: 10}),
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for _, p := range pairs {
		h.Match(p[0], p[1])
		h.TreeScore(p[0], p[1])
	}
	grown := heap() - before
	runtime.KeepAlive(h)
	runtime.KeepAlive(pairs)
	if grown >= 16<<20 {
		t.Errorf("heap grew %d KiB over 8 pairs on one Hybrid, want < 16 MiB", grown>>10)
	}
}
