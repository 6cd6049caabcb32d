//go:build race

package main

// raceEnabled lifts the smoke test's wall-clock limit: the race detector
// slows the simulator five- to tenfold.
const raceEnabled = true
