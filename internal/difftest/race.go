//go:build race

package difftest

const raceEnabled = true
