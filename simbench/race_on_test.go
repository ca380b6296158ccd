//go:build race

package main

// raceMode is set under the race detector, whose instrumentation owns the
// leaf frames of a CPU profile.
const raceMode = true
