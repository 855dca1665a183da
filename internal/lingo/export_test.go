package lingo

// Bridges for the external tests of this package, which draw labels from
// packages that import it.
var (
	KernelPool       = kernelPool
	JaroWinklerRunes = jaroWinklerRunes
	JaroWinklerBound = jaroWinklerBound
	SimFromDice      = simFromDice
)

// Grams returns the sorted trigram hash multiset of a normal form, as
// the matcher computes it.
func Grams(s string) []uint64 {
	g := ngramHashesRunes(nil, []rune(s), 3)
	sortHashes(g)
	return g
}

// Dice is the exact trigram Dice of two sorted gram multisets.
func Dice(ga, gb []uint64) float64 {
	d, _ := diceSortedBounded(ga, gb, 0)
	return d
}

// MarkCandidates runs ScoreRow's candidate-marking step for source label
// si and returns the candidate bitmap.
func (ks *KernelScorer) MarkCandidates(si int32, sc *RowScratch) []uint64 {
	ks.markCandidates(si, sc)
	return sc.cand
}
