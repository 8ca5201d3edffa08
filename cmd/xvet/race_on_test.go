//go:build race

package main

// raceEnabled lifts TestColdSweepUnderFiveSeconds' time limit: the
// race detector slows type-checking and the analyzers several times
// over.
const raceEnabled = true
