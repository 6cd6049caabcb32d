//go:build !race

package difftest

const raceEnabled = false
