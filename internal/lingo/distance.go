package lingo

import (
	"slices"
	"sync"
)

// String-similarity metrics over runes and trigram hashes that the caller
// decoded once per label or token (see LabelFeatures). Similarities lie in
// [0, 1] with 1 meaning identical. Inputs are compared as-is: callers
// normalize first (see Normalize / Tokenize).

// jaroStackLimit is the rune count up to which Jaro runs without heap
// allocation — schema labels are almost always shorter.
const jaroStackLimit = 64

// longBufs holds the spill match flags Jaro needs for inputs longer than
// jaroStackLimit runes. Pooling them keeps even pathological label lengths
// off the allocator's hot path.
type longBufs struct {
	ma, mb []bool
}

var longBufPool = sync.Pool{New: func() any { return new(longBufs) }}

// boolsInto returns a zeroed bool slice of length n backed by buf when its
// capacity allows.
func boolsInto(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// jaroRunes computes the Jaro similarity over decoded runes; matchedA and
// matchedB are zeroed scratch of the matching lengths.
func jaroRunes(ra, rb []rune, matchedA, matchedB []bool) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	matches := 0
	for i := range ra {
		lo := max(0, i-window)
		hi := min(len(rb)-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i], matchedB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// jaroWinklerRunes returns the Jaro similarity of ra and rb boosted for a
// shared prefix of up to four runes with the standard scaling factor 0.1.
// The stack and pooled buffer paths are kept strictly apart so escape
// analysis can prove the stack arrays never reach the heap — the common
// short-label case runs allocation-free.
func jaroWinklerRunes(ra, rb []rune) float64 {
	var j float64
	if len(ra) <= jaroStackLimit && len(rb) <= jaroStackLimit {
		var bufA, bufB [jaroStackLimit]bool
		j = jaroRunes(ra, rb, bufA[:len(ra)], bufB[:len(rb)])
	} else {
		lb := longBufPool.Get().(*longBufs)
		ma := boolsInto(lb.ma, len(ra))
		mb := boolsInto(lb.mb, len(rb))
		lb.ma, lb.mb = ma, mb
		j = jaroRunes(ra, rb, ma, mb)
		longBufPool.Put(lb)
	}
	prefix := 0
	n := min(len(ra), len(rb), 4)
	for prefix < n && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// jwBoundSlack covers the rounding of the Winkler step when
// jaroWinklerBound applies it to the Jaro bound instead of the Jaro value
// (see jaroWinklerBound).
const jwBoundSlack = 1e-12

// jaroWinklerBound returns an upper bound on jaroWinklerRunes(ra, rb), or
// false when either side holds a rune of 128 or above. Jaro's match count
// m is at most M, the size of the two sides' common rune multiset, and
// its (m−t)/m term is at most 1, so with the common prefix p of
// jaroWinklerRunes the result is at most jb + p·0.1·(1−jb), where
// jb = (M/|a| + M/|b| + 1)/3.
//
// The bound holds for jaroRunes' float expressions, not just for their
// real values. jb evaluates the Jaro expression's operations in the same
// order on operands that are each at least as large, and division,
// addition and /3 round monotonically, so jb is at least the Jaro value.
// The Winkler step j + p·0.1·(1−j) increases with j in real arithmetic
// but need not in floats: each of its operations, fused or not, is within
// a relative 2⁻⁵³ of its exact result on operands below 2, so the
// evaluated step is within 1e-15 of its real value and slackening the
// bound by jwBoundSlack keeps it above the evaluated Jaro-Winkler value.
// Both sides are non-empty.
func jaroWinklerBound(ra, rb []rune) (float64, bool) {
	var count [128]int32
	for _, r := range ra {
		if uint32(r) >= 128 {
			return 0, false
		}
		count[r]++
	}
	common := 0
	for _, r := range rb {
		if uint32(r) >= 128 {
			return 0, false
		}
		if count[r] > 0 {
			count[r]--
			common++
		}
	}
	prefix := 0
	n := min(len(ra), len(rb), 4)
	for prefix < n && ra[prefix] == rb[prefix] {
		prefix++
	}
	m := float64(common)
	jb := (m/float64(len(ra)) + m/float64(len(rb)) + 1) / 3
	return jb + float64(prefix)*0.1*(1-jb) + jwBoundSlack, true
}

// diceSortedBounded returns the multiset Dice coefficient 2·common/(|ga|+|gb|)
// of two sorted gram-hash multisets by a linear merge, with an early exit:
// when even matching every remaining hash could not lift the Dice value to
// need, it bails and reports exact=false (the true value is then provably
// < need). A completed merge reports the exact value. The bound
// common+min(rem) only decreases as the merge advances, so one check per
// step suffices. An empty multiset reports (0, false).
func diceSortedBounded(ga, gb []uint64, need float64) (dice float64, exact bool) {
	if len(ga) == 0 || len(gb) == 0 {
		return 0, false
	}
	// need ≤ common+minRem threshold in count space: bail once
	// common + min(remaining) < need·(|ga|+|gb|)/2.
	thr := need * float64(len(ga)+len(gb)) / 2
	common := 0
	i, j := 0, 0
	for i < len(ga) && j < len(gb) {
		rem := len(ga) - i
		if r := len(gb) - j; r < rem {
			rem = r
		}
		if float64(common+rem) < thr {
			return 0, false
		}
		switch {
		case ga[i] == gb[j]:
			common++
			i++
			j++
		case ga[i] < gb[j]:
			i++
		default:
			j++
		}
	}
	return 2 * float64(common) / float64(len(ga)+len(gb)), true
}

// ngramHashesRunes appends to buf the FNV-1a hash of every n-rune window of
// r padded with n−1 boundary runes on each side; an empty r yields none.
func ngramHashesRunes(buf []uint64, r []rune, n int) []uint64 {
	if len(r) == 0 {
		return buf[:0]
	}
	total := len(r) + n - 1 // windows including boundary padding
	for w := 0; w < total; w++ {
		h := uint64(fnvOffset)
		for k := 0; k < n; k++ {
			idx := w + k - (n - 1)
			var c rune
			switch {
			case idx < 0:
				c = '\x00' // leading pad
			case idx >= len(r):
				c = '\x01' // trailing pad
			default:
				c = r[idx]
			}
			h = (h ^ uint64(c)) * fnvPrime
		}
		buf = append(buf, h)
	}
	return buf
}

// sortHashes insertion-sorts short hash slices (the common case) and falls
// back to the stdlib for long ones. The fallback is the generic
// slices.Sort, not sort.Slice — interface boxing in the latter makes the
// caller's stack-backed hash buffers escape to the heap on every call.
func sortHashes(h []uint64) {
	if len(h) > 96 {
		slices.Sort(h)
		return
	}
	for i := 1; i < len(h); i++ {
		v := h[i]
		j := i - 1
		for j >= 0 && h[j] > v {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = v
	}
}

// IsSubsequence reports whether a is a subsequence of b (characters of a
// appear in b in order, not necessarily contiguously).
func IsSubsequence(a, b string) bool {
	ra, rb := []rune(a), []rune(b)
	i := 0
	for _, r := range rb {
		if i < len(ra) && ra[i] == r {
			i++
		}
	}
	return i == len(ra)
}

// runesInto decodes s into buf (reusing its backing array when capacity
// allows), avoiding a heap allocation for short strings.
func runesInto(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}
