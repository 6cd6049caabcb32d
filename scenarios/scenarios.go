// Package scenarios embeds the committed campaign specs, so a binary
// runs them from any working directory: the CI-sized miniatures at the
// top level (2 000 warmup + 8 000 measured cycles) and the paper-size
// grids under full/. cmd/experiments runs -exp NAME as NAME.json, or
// full/NAME.json without -quick.
package scenarios

import "embed"

// FS holds every *.json and full/*.json spec of this directory.
//
//go:embed *.json full/*.json
var FS embed.FS
