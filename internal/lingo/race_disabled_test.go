//go:build !race

package lingo_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation gate skips under it, as the root package's gates do.
const raceEnabled = false
