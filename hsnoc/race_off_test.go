//go:build !race

package hsnoc

const raceEnabled = false
