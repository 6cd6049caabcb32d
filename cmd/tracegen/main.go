// Command tracegen synthesizes and inspects traffic traces — the first
// half of the trace-driven simulation workflow. `nocsim -replay` is the
// second: it runs a trace on the same simulator as every other workload.
//
//	tracegen -pattern tornado -rate 0.15 -cycles 20000 -out tor.trace
//	tracegen -info tor.trace
//	nocsim -replay tor.trace -mode tdm -trace-out tor.perfetto.json
package main

import (
	"flag"
	"fmt"
	"os"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
)

// validateActions enforces that exactly one of the two actions was
// requested: -out and -info each start a different workflow, so a
// combined invocation is ambiguous.
func validateActions(out, info string) error {
	switch {
	case out == "" && info == "":
		return fmt.Errorf("one of -out or -info is required (replay a trace with nocsim -replay)")
	case out != "" && info != "":
		return fmt.Errorf("-out and -info are mutually exclusive; pass exactly one")
	}
	return nil
}

func main() {
	pattern := flag.String("pattern", "tornado", "pattern for synthesis: ur|tornado|transpose|bc|neighbor|hotspot")
	rate := flag.Float64("rate", 0.15, "offered load in flits/node/cycle")
	width := flag.Int("width", 6, "mesh width")
	height := flag.Int("height", 6, "mesh height")
	cycles := flag.Int64("cycles", 20000, "trace length in cycles")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	out := flag.String("out", "", "write a synthesized trace to this file")
	info := flag.String("info", "", "print a summary of this trace file")
	flag.Parse()

	if err := validateActions(*out, *info); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *info != "" {
		showInfo(*info)
		return
	}
	synthesize(*pattern, *rate, *width, *height, *cycles, *seed, *out)
}

// fatal reports err and exits (2 = bad invocation, 1 = failed run).
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

func synthesize(pattern string, rate float64, w, h int, cycles int64, seed uint64, out string) {
	p, err := campaign.ParsePattern(pattern)
	if err != nil {
		fatal(2, err)
	}
	tr := trace.Synthesize(p, topology.NewMesh(w, h), rate, 5, cycles, seed)
	f, err := os.Create(out)
	if err != nil {
		fatal(1, err)
	}
	defer f.Close()
	if err := tr.Save(f); err != nil {
		fatal(1, err)
	}
	fmt.Printf("wrote %d events over %d cycles (%dx%d mesh) to %s\n",
		len(tr.Events), tr.Duration(), tr.Width, tr.Height, out)
}

func showInfo(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(1, err)
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		fatal(1, err)
	}
	perSrc := map[topology.NodeID]int{}
	flits := 0
	for _, e := range tr.Events {
		perSrc[e.Src]++
		flits += e.SizeFlits
	}
	fmt.Printf("%s: %dx%d mesh, %d events, %d flits, %d cycles\n",
		path, tr.Width, tr.Height, len(tr.Events), flits, tr.Duration())
	if tr.Duration() > 0 {
		fmt.Printf("offered load: %.4f flits/node/cycle over %d active sources\n",
			float64(flits)/float64(tr.Duration())/float64(tr.Width*tr.Height), len(perSrc))
	}
}
