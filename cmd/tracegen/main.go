// Command tracegen synthesizes, inspects and replays traffic traces —
// the trace-driven simulation workflow. Synthesis and inspection are
// this command's own; replay is hsnoc.NewReplay, the same simulator
// nocsim drives.
//
//	tracegen -pattern tornado -rate 0.15 -cycles 20000 -out tor.trace
//	tracegen -info tor.trace
//	tracegen -replay tor.trace -mode tdm
//	tracegen -replay tor.trace -mode tdm -trace-out tor.perfetto.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
)

// validateActions enforces that exactly one of the three actions was
// requested: -out, -info and -replay each start a different workflow, so
// a combined invocation is ambiguous (the old dispatcher silently
// preferred -info and ignored the rest).
func validateActions(out, info, replay string) error {
	set := 0
	for _, v := range []string{out, info, replay} {
		if v != "" {
			set++
		}
	}
	switch {
	case set == 0:
		return fmt.Errorf("one of -out, -info or -replay is required")
	case set > 1:
		return fmt.Errorf("-out, -info and -replay are mutually exclusive; pass exactly one")
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
	replay := flag.String("replay", "", "replay this trace file")
	mode := flag.String("mode", "tdm", "replay network: packet|tdm")
	traceOut := flag.String("trace-out", "", "with -replay: write a Chrome trace-event (Perfetto) JSON of the replay to this file")
	flag.Parse()

	if err := validateActions(*out, *info, *replay); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *info != "":
		showInfo(*info)
	case *replay != "":
		runReplay(*replay, *mode, *traceOut)
	default:
		synthesize(*pattern, *rate, *width, *height, *cycles, *seed, *out)
	}
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

func loadTrace(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(1, err)
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		fatal(1, err)
	}
	return tr
}

func showInfo(path string) {
	tr := loadTrace(path)
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

func runReplay(path, mode, traceOut string) {
	tr := loadTrace(path)
	m, err := campaign.ParseMode(mode)
	if err != nil {
		fatal(2, err)
	}
	cfg := hsnoc.DefaultConfig(tr.Width, tr.Height)
	cfg.Mode = m
	s, err := hsnoc.NewReplay(cfg, tr) // refuses sdm: its engine has no endpoints to replay into
	if err != nil {
		fatal(2, err)
	}
	defer s.Close()
	if traceOut != "" {
		// Full-fidelity timelines need headroom; the default ring is
		// sized for summaries.
		if _, err := s.AttachTelemetry(hsnoc.TelemetryOptions{RingCapacity: 1 << 19}); err != nil {
			fatal(1, err)
		}
	}
	s.Run(int(tr.Duration()) + 10)
	if !s.Drain(200000) {
		fatal(1, errors.New("replay failed to drain within 200000 cycles"))
	}
	res := s.Run(0) // the measured region now includes the drain
	fmt.Printf("replayed %d packets on %s network\n", res.Packets, mode)
	fmt.Printf("  avg net latency   %.1f cycles\n", res.AvgNetLatency)
	fmt.Printf("  avg total latency %.1f cycles\n", res.AvgTotalLatency)
	fmt.Printf("  circuit-switched  %.1f%%\n", 100*res.CSFlitFraction)
	fmt.Printf("  energy            %.2f uJ\n", res.Energy.TotalPJ/1e6)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(1, err)
		}
		werr := s.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(1, werr)
		}
		rec := s.Telemetry()
		fmt.Printf("  trace             %s (%d events recorded, %d dropped)\n",
			traceOut, rec.Events(), rec.Dropped())
	}
}
