//go:build race

package hsnoc

// raceEnabled skips the longest traced worker matrices under the race
// detector, which slows the simulator five- to tenfold; the traced
// parallel paths stay covered there by TestTracedParallelRace and
// TestTraceBytesWorkerInvariant.
const raceEnabled = true
