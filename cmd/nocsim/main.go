// Command nocsim runs a single NoC simulation and prints its metrics.
//
//	nocsim -mode tdm -pattern tornado -rate 0.15 -cycles 40000
//	nocsim -mode packet -pattern ur -rate 0.3
//	nocsim -mode tdm -hetero -cpu EQUAKE -gpu BLACKSCHOLES
//	nocsim -mode tdm -replay tor.trace -trace-out tor.perfetto.json
//	nocsim -mode tdm -pattern tornado -rate 0.2 -policy greedy
//
// Modes: packet (Packet-VC4 baseline), tdm (Hybrid-TDM), sdm (Hybrid-SDM
// baseline). TDM options: -sharing (hitchhiker/vicinity path sharing),
// -vcgating (aggressive VC power gating), -slots N (slot-table capacity).
// -replay injects a trace written by tracegen on the trace's own mesh and
// runs it to completion: past its last event, then drained. A workload
// flag the chosen workload does not read is refused. -policy P
// runs the workload twice: once with the flow profiler attached, then
// under the configuration P decides from that profile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/textplot"
	"tdmnoc/internal/trace"
)

// validateFlags rejects flag combinations that would panic, hang, or
// silently do nothing — with a clear message and exit code 2 instead.
func validateFlags(rate float64, warmup, cycles, packets, workers, slots int) error {
	if rate < 0 {
		return fmt.Errorf("nocsim: negative injection rate %v", rate)
	}
	if rate > 1 {
		return fmt.Errorf("nocsim: injection rate %v exceeds 1 flit/node/cycle", rate)
	}
	if packets < 0 {
		return fmt.Errorf("nocsim: negative packet target %d", packets)
	}
	if packets > 0 && rate == 0 {
		return fmt.Errorf("nocsim: a zero injection rate can never reach the %d-packet target; raise -rate or drop -packets", packets)
	}
	if warmup < 0 {
		return fmt.Errorf("nocsim: negative warm-up %d", warmup)
	}
	if cycles <= 0 {
		return fmt.Errorf("nocsim: measured region must be positive, got %d cycles", cycles)
	}
	if workers < 0 {
		return fmt.Errorf("nocsim: negative worker count %d", workers)
	}
	if slots <= 0 {
		return fmt.Errorf("nocsim: slot-table capacity must be positive, got %d", slots)
	}
	return nil
}

// validateObsFlags rejects tracing/telemetry requests the simulator
// cannot honour: the SDM baseline's engine has no probe layer. Every
// workload and worker count of the shared router network can be traced.
func validateObsFlags(traceOut string, telemetryEvery int, mode hsnoc.Mode) error {
	if telemetryEvery < 0 {
		return fmt.Errorf("nocsim: negative -telemetry-every %d", telemetryEvery)
	}
	if (traceOut != "" || telemetryEvery > 0) && mode == hsnoc.HybridSDM {
		return fmt.Errorf("nocsim: -trace-out/-telemetry-every are not available for sdm mode")
	}
	return nil
}

// validatePolicyFlags resolves -policy before anything runs: nil for
// no policy, an error for a spec no policy parses, for sdm mode (whose
// engine has no flow profiler to run the first pass with), or for a
// decision the re-run could not take. What a decision changes does not
// depend on the profile — threshold and greedy always restrict setups,
// which needs a Hybrid-TDM base; sdm-gate always re-runs in sdm mode,
// which runs synthetic traffic only — so the decision on an empty
// profile is applied to cfg here, and the result checked with w, before
// the profiling pass could run for nothing.
func validatePolicyFlags(policySpec string, cfg hsnoc.Config, w hsnoc.Workload) (policy.Policy, error) {
	if policySpec == "" {
		return nil, nil
	}
	if cfg.Mode == hsnoc.HybridSDM {
		return nil, fmt.Errorf("nocsim: -policy is not available for sdm mode (its profiling pass needs the flow profiler)")
	}
	pol, err := hsnoc.ParsePolicy(policySpec)
	if err != nil {
		return nil, err
	}
	decided, err := hsnoc.ApplyDecision(cfg, pol.Decide(hsnoc.DecisionProfile(cfg, &obs.Summary{})))
	if err != nil {
		return nil, fmt.Errorf("nocsim: -policy %s does not apply to %v mode: %w", pol.Name(), cfg.Mode, err)
	}
	if err := hsnoc.Check(decided, w); err != nil {
		return nil, fmt.Errorf("nocsim: -policy %s re-runs in %v mode: %w", pol.Name(), decided.Mode, err)
	}
	return pol, nil
}

// refuse names the first flag set on the command line among names,
// which the run that why names would not read.
func refuse(fs *flag.FlagSet, why string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("nocsim: -%s does not apply to %s", f.Name, why)
		}
	})
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse args, build one simulator from the
// workload flags, then attach → warm up → measure → print → check →
// heatmap → trace, the same sequence for every workload (a replay
// measures from cycle 0 through its drain instead). With -policy a
// profiling pass of the same workload and measurement comes first. It
// returns the process exit code (2 = bad invocation, 1 = failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "tdm", "switching mode: packet|tdm|sdm")
	pattern := fs.String("pattern", "tornado", "traffic pattern: ur|tornado|transpose|bc|neighbor|hotspot")
	rate := fs.Float64("rate", 0.15, "offered load in flits/node/cycle")
	width := fs.Int("width", 6, "mesh width")
	height := fs.Int("height", 6, "mesh height")
	warmup := fs.Int("warmup", 8000, "warm-up cycles (not measured)")
	cycles := fs.Int("cycles", 40000, "measured cycles")
	packets := fs.Int("packets", 0, "stop measuring once this many packets are delivered (0 = run the full -cycles; -cycles still caps the run)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	slots := fs.Int("slots", tablei.SlotTableEntries, "slot-table capacity (tdm)")
	sharing := fs.Bool("sharing", false, "enable circuit-switched path sharing (tdm)")
	vcgating := fs.Bool("vcgating", false, "enable aggressive VC power gating")
	noSteal := fs.Bool("nostealing", false, "disable time-slot stealing (tdm)")
	staticSlots := fs.Bool("staticslots", false, "disable dynamic slot-table sizing (tdm)")
	workers := fs.Int("workers", 1, "executor parallelism")
	check := fs.Bool("check", false, "run the per-cycle invariant checker (conservation, credits, slot tables, VC masks; tens of times slower, never changes results)")
	checkEvery := fs.Int("checkevery", 1, "with -check, run the checks every N cycles")
	hetero := fs.Bool("hetero", false, "run the heterogeneous system instead of synthetic traffic")
	cpuB := fs.String("cpu", "EQUAKE", "CPU benchmark (hetero)")
	gpuB := fs.String("gpu", "BLACKSCHOLES", "GPU benchmark (hetero)")
	heatmap := fs.Bool("heatmap", false, "print per-router and per-link utilisation heatmaps after the run")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event (Perfetto) JSON timeline to this file (packet/tdm)")
	telemetryEvery := fs.Int("telemetry-every", 0, "sample link/buffer/energy telemetry every N cycles and print time-series plots (packet/tdm)")
	configPath := fs.String("config", "", "load the network configuration from this JSON file (overrides structural flags)")
	policySpec := fs.String("policy", "", "profile the workload, then run it under this policy's decision: static|threshold[:N]|greedy[:K]|sdm-gate (packet/tdm)")
	adaptive := fs.Int64("adaptive", 0, "enable the online controller: re-rank flows and re-pin circuits every N cycles (tdm)")
	adaptiveTopK := fs.Int("adaptive-topk", 0, "with -adaptive, flows the online controller pins per epoch (0 = default 8)")
	replay := fs.String("replay", "", "replay this trace file (written by tracegen) on its own mesh until every packet lands, instead of synthetic traffic (packet/tdm)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}

	// One workload runs: a replay, a Section V mix or synthetic traffic.
	// A workload flag it would not read is refused rather than ignored;
	// a replay's workload, mesh and run length all come from the trace.
	var w hsnoc.Workload
	var what string
	var tr *trace.Trace
	switch {
	case *replay != "":
		if err := refuse(fs, "-replay (the trace fixes the workload, the mesh and the run length)",
			"hetero", "pattern", "rate", "cpu", "gpu", "width", "height", "warmup", "cycles", "packets"); err != nil {
			return fail(2, err)
		}
		f, err := os.Open(*replay)
		if err != nil {
			return fail(2, err)
		}
		tr, err = trace.Load(f)
		f.Close()
		if err != nil {
			return fail(2, fmt.Errorf("nocsim: %s: %w", *replay, err))
		}
		*width, *height = tr.Width, tr.Height
		w, what = hsnoc.Replay{Trace: tr}, fmt.Sprintf("replay of %s (%d events)", *replay, len(tr.Events))
	case *hetero:
		if err := refuse(fs, "-hetero", "pattern", "rate"); err != nil {
			return fail(2, err)
		}
		w, what = hsnoc.Mix{CPU: *cpuB, GPU: *gpuB}, fmt.Sprintf("heterogeneous mix %s/%s", *gpuB, *cpuB)
	default:
		pat, err := campaign.ParsePattern(*pattern)
		if err == nil {
			err = refuse(fs, "synthetic traffic (set -hetero)", "cpu", "gpu")
		}
		if err != nil {
			return fail(2, err)
		}
		w, what = hsnoc.Synthetic{Pattern: pat, Rate: *rate}, fmt.Sprintf("pattern %v, offered %.3f flits/node/cycle", pat, *rate)
	}

	// campaign.ParseMode, like ParsePattern above, is the one home of
	// the CLI name mappings.
	m, err := campaign.ParseMode(*mode)
	if err != nil {
		return fail(2, err)
	}
	if err := validateFlags(*rate, *warmup, *cycles, *packets, *workers, *slots); err != nil {
		return fail(2, err)
	}
	if err := refuse(fs, "a run without -check", "checkevery"); err != nil && !*check {
		return fail(2, err)
	}
	cfg := hsnoc.DefaultConfig(*width, *height)
	cfg.Mode = m
	cfg.Seed = *seed
	cfg.SlotTableEntries = *slots
	cfg.PathSharing = *sharing
	cfg.VCPowerGating = *vcgating
	cfg.DisableTimeSlotStealing = *noSteal
	cfg.DisableDynamicSlotSizing = *staticSlots
	cfg.Workers = *workers
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return fail(2, err)
		}
		cfg, err = hsnoc.LoadConfig(f)
		f.Close()
		if err != nil {
			return fail(2, err)
		}
	}
	// Checking is a run-time observation knob, so -check applies even
	// when -config replaced the structural flags.
	if *check {
		cfg.CheckInvariants = true
		cfg.CheckInterval = *checkEvery
	}
	if *adaptive > 0 || *adaptiveTopK > 0 {
		cfg.AdaptiveEpoch = *adaptive
		cfg.AdaptiveTopK = *adaptiveTopK
	}
	if err := hsnoc.Check(cfg, w); err != nil {
		return fail(2, err)
	}
	if err := validateObsFlags(*traceOut, *telemetryEvery, cfg.Mode); err != nil {
		return fail(2, err)
	}
	pol, err := validatePolicyFlags(*policySpec, cfg, w)
	if err != nil {
		return fail(2, err)
	}

	// measure runs the measured region: a replay from its cycle 0 until
	// every recorded packet has landed, otherwise a warm-up, then -cycles
	// or until -packets are delivered.
	measure := func(s *hsnoc.Simulator) (hsnoc.Results, error) {
		switch {
		case tr != nil:
			s.Run(int(tr.Duration()) + 10)
			if !s.Drain(200000) {
				return hsnoc.Results{}, errors.New("nocsim: replay failed to drain within 200000 cycles")
			}
			return s.Run(0), nil // the measured region now includes the drain
		case *packets > 0:
			s.Warmup(*warmup)
			return s.RunUntilPackets(int64(*packets), *cycles), nil
		default:
			s.Warmup(*warmup)
			return s.Run(*cycles), nil
		}
	}

	// The trace file is opened before anything runs, so a path that
	// cannot be written fails at once rather than after the simulation.
	// A file that was already there is left as it was until the trace is
	// written; one this run created (O_EXCL tells) goes if the run fails
	// first.
	var traceFile *os.File
	if *traceOut != "" {
		created := true
		traceFile, err = os.OpenFile(*traceOut, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, os.ErrExist) {
			created = false
			traceFile, err = os.OpenFile(*traceOut, os.O_WRONLY, 0)
		}
		if err != nil {
			return fail(1, err)
		}
		defer func() {
			if traceFile != nil {
				traceFile.Close()
				if created {
					os.Remove(*traceOut)
				}
			}
		}()
	}

	if pol != nil {
		// The profiling pass is a campaign's wave 1: the same workload
		// and measurement with the flow profiler attached. Checking
		// never changes results, so -check is left to the re-run.
		pcfg := cfg
		pcfg.CheckInvariants = false
		s, err := hsnoc.New(pcfg, w)
		if err != nil {
			return fail(2, err)
		}
		_, err = s.AttachTelemetry(hsnoc.FlowProfileTelemetry(0))
		if err == nil {
			_, err = measure(s)
		}
		var prof *hsnoc.Profile
		if err == nil {
			prof, err = s.ExtractProfile()
		}
		s.Close()
		if err != nil {
			return fail(1, err)
		}
		d := pol.Decide(prof)
		if cfg, err = hsnoc.ApplyDecision(cfg, d); err != nil {
			return fail(2, err)
		}
		fmt.Fprintf(stdout, "policy %s: %d pinned flows, restrict_setups=%v, slot_init=%d, use_sdm=%v, gated_planes=%d\n",
			pol.Name(), len(d.PinnedFlows), d.RestrictSetups, d.SlotInit, d.UseSDM, d.GatedPlanes)
	}

	s, err := hsnoc.New(cfg, w)
	if err != nil {
		return fail(2, err)
	}
	defer s.Close()
	wantTelemetry := *traceOut != "" || *telemetryEvery > 0
	if wantTelemetry || *heatmap {
		opt := hsnoc.TelemetryOptions{Every: *telemetryEvery}
		if *traceOut != "" {
			// Full-fidelity timelines need headroom; the default ring is
			// sized for summaries.
			opt.RingCapacity = 1 << 19
		}
		if _, err := s.AttachTelemetry(opt); err != nil && wantTelemetry {
			// -heatmap alone degrades gracefully to the per-router map
			// (which needs no probe); explicit tracing flags do not.
			return fail(2, err)
		}
	}
	res, err := measure(s)
	if err != nil {
		return fail(1, err)
	}
	if *packets > 0 && res.Packets < int64(*packets) {
		fmt.Fprintf(stderr, "nocsim: only %d of %d target packets delivered within %d cycles\n",
			res.Packets, *packets, *cycles)
	}

	fmt.Fprintf(stdout, "%v, %s, %d cycles\n", cfg.Mode, what, res.Cycles)
	fmt.Fprintf(stdout, "  delivered packets       %d\n", res.Packets)
	fmt.Fprintf(stdout, "  accepted throughput     %.4f flits/node/cycle (%.4f payload-normalised)\n", res.Throughput, res.PayloadThroughput)
	fmt.Fprintf(stdout, "  avg network latency     %.1f cycles\n", res.AvgNetLatency)
	fmt.Fprintf(stdout, "  avg total latency       %.1f cycles (incl. source queueing)\n", res.AvgTotalLatency)
	fmt.Fprintf(stdout, "  circuit-switched flits  %.1f%%\n", 100*res.CSFlitFraction)
	fmt.Fprintf(stdout, "  config traffic          %.2f%% of flits\n", 100*res.ConfigTrafficFraction)
	fmt.Fprintf(stdout, "  circuits established    %d (active slot entries: %d)\n", res.CircuitsEstablished, res.ActiveSlotEntries)
	if res.CPUInstructions+res.GPUIterations > 0 {
		fmt.Fprintf(stdout, "  CPU instructions        %d\n", res.CPUInstructions)
		fmt.Fprintf(stdout, "  GPU memory operations   %d\n", res.GPUIterations)
		fmt.Fprintf(stdout, "  GPU injection rate      %.3f flits/node/cycle\n", res.GPUInjectionRate)
		fmt.Fprintf(stdout, "  GPU circuit-switched    %.1f%%\n", 100*res.GPUCSFraction)
		fmt.Fprintf(stdout, "  avg CPU / GPU latency   %.1f / %.1f cycles\n", res.AvgCPULatency, res.AvgGPULatency)
	}
	if res.Hitchhikes+res.VicinityRides > 0 {
		fmt.Fprintf(stdout, "  path sharing            %d hitchhikes, %d vicinity rides\n", res.Hitchhikes, res.VicinityRides)
	}
	fmt.Fprintf(stdout, "  energy                  %.2f uJ (dynamic %.2f, static %.2f)\n",
		res.Energy.TotalPJ/1e6, sum(res.Energy.DynamicPJ)/1e6, sum(res.Energy.StaticPJ)/1e6)
	allocated, free := s.PacketPool()
	fmt.Fprintf(stdout, "  packet pool             %d allocated, %d free, %d alive (simulator memory, not a result)\n",
		allocated, free, allocated-free)
	slotBytes, routerBytes, niBytes := s.ArenaBytes()
	fmt.Fprintf(stdout, "  arenas                  %d B slot tables, %d B routers, %d B NIs (simulator memory, not a result)\n",
		slotBytes, routerBytes, niBytes)
	if rec := s.Telemetry(); rec != nil && (wantTelemetry || *heatmap) {
		fmt.Fprintf(stdout, "  event rings             %d B (simulator memory, not a result)\n", rec.RingBytes())
	}
	if cycles, waits := s.ExecutorWaits(); len(waits) > 0 {
		var parks int64
		waited := make([]string, len(waits))
		for i, w := range waits {
			parks += w.Parks
			waited[i] = fmt.Sprintf("%.1f", w.Waited.Seconds()*1e3)
		}
		fmt.Fprintf(stdout, "  barrier waits           %.0f parks per 1000 cycles, %s ms waited per worker (simulator speed, not a result)\n",
			1000*float64(parks)/float64(max(cycles, 1)), strings.Join(waited, "/"))
	}
	if cfg.AdaptiveEpoch > 0 {
		fmt.Fprintf(stdout, "  adaptive controller     %d epoch re-pin(s) every %d cycles\n", s.AdaptiveRepins(), cfg.AdaptiveEpoch)
	}
	if *check && !cfg.CheckInvariants {
		// An sdm-gate decision moved the re-run to the SDM engine.
		fmt.Fprintf(stdout, "  invariants              not checked (%v has no invariant layer)\n", cfg.Mode)
	} else if *check {
		if n := s.InvariantViolationCount(); n > 0 {
			fmt.Fprintf(stderr, "nocsim: %d invariant violation(s):\n", n)
			for _, v := range s.InvariantViolations() {
				fmt.Fprintf(stderr, "  %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(stdout, "  invariants              clean, rolling digest %016x\n", s.RollingDigest())
	}
	if *telemetryEvery > 0 {
		if out, err := s.RenderTelemetry(); err != nil {
			fmt.Fprintln(stderr, err)
		} else {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, out)
		}
	}
	if *heatmap {
		if grid := s.UtilizationGrid(); grid != nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, textplot.Heatmap("router utilisation", grid))
		}
		if out, err := s.RenderLinkHeatmap(); err == nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, out)
		}
	}
	if traceFile != nil {
		werr := truncateRegular(traceFile)
		if werr == nil {
			werr = s.WriteTrace(traceFile)
		}
		if cerr := traceFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(1, werr)
		}
		traceFile = nil // written: keep it
		rec := s.Telemetry()
		fmt.Fprintf(stdout, "  trace                   %s (%d events recorded, %d dropped)\n",
			*traceOut, rec.Events(), rec.Dropped())
	}
	d := s.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		fmt.Fprintf(stdout, "  WARNING: invariant violations: %+v\n", d)
		return 1
	}
	return 0
}

// truncateRegular empties f if it is a regular file, as os.Create would;
// a device or pipe (-trace-out /dev/stdout) is written as it is.
func truncateRegular(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return err
	}
	return f.Truncate(0)
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
