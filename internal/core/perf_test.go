package core

import (
	"testing"

	"qmatch/internal/dataset"
)

// BenchmarkProteinHybridTree measures the full pair-table computation on
// the corpus' largest workload (231×3753 nodes) — the figure that
// motivated the dense-table memo and the allocation-free string metrics.
func BenchmarkProteinHybridTree(b *testing.B) {
	p := dataset.ProteinPair()
	m := NewMatcher(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tree(p.Source, p.Target)
	}
}

// BenchmarkDCMDHybridTree is the mid-size counterpart.
func BenchmarkDCMDHybridTree(b *testing.B) {
	p := dataset.DCMDPair()
	m := NewMatcher(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tree(p.Source, p.Target)
	}
}

// BenchmarkTopPairs measures bounded-heap top-n selection over the PIR×PDB
// pair table (867k cells): one pass with n heap entries instead of
// materializing and sorting every pair.
func BenchmarkTopPairs(b *testing.B) {
	p := dataset.ProteinPair()
	res := NewMatcher(nil).Tree(p.Source, p.Target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.TopPairs(10)
	}
}
