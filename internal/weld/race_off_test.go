//go:build !race

package weld

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
