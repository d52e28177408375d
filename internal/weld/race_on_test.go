//go:build race

package weld

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under race (the detector
// allocates shadow state of its own).
const raceEnabled = true
