//go:build race

package main

// raceEnabled lifts TestSmoke's time limit: the race detector slows
// the engine several times over.
const raceEnabled = true
