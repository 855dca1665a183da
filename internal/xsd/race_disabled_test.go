//go:build !race

package xsd

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
