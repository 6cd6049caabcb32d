// Command nocsim runs a single NoC simulation and prints its metrics.
//
//	nocsim -mode tdm -pattern tornado -rate 0.15 -cycles 40000
//	nocsim -mode packet -pattern ur -rate 0.3
//	nocsim -mode tdm -hetero -cpu EQUAKE -gpu BLACKSCHOLES
//
// Modes: packet (Packet-VC4 baseline), tdm (Hybrid-TDM), sdm (Hybrid-SDM
// baseline). TDM options: -sharing (hitchhiker/vicinity path sharing),
// -vcgating (aggressive VC power gating), -slots N (slot-table capacity).
package main

import (
	"flag"
	"fmt"
	"os"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/textplot"
)

// parseMode and parsePattern delegate to the campaign package, the one
// home of the CLI name mappings.
func parseMode(s string) (hsnoc.Mode, error) { return campaign.ParseMode(s) }

func parsePattern(s string) (hsnoc.Pattern, error) { return campaign.ParsePattern(s) }

// validateFlags rejects flag combinations that would panic, hang, or
// silently do nothing — with a clear message and exit code 2 instead.
func validateFlags(rate float64, warmup, cycles, packets, workers, slots int, hetero bool) error {
	if rate < 0 {
		return fmt.Errorf("nocsim: negative injection rate %v", rate)
	}
	if rate > 1 {
		return fmt.Errorf("nocsim: injection rate %v exceeds 1 flit/node/cycle", rate)
	}
	if packets < 0 {
		return fmt.Errorf("nocsim: negative packet target %d", packets)
	}
	if packets > 0 && rate == 0 && !hetero {
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
// cannot honour (probes run inside compute ticks, so they need a serial
// executor, and neither the SDM baseline nor the heterogeneous driver
// exposes the probe layer).
func validateObsFlags(traceOut string, telemetryEvery int, mode hsnoc.Mode, workers int, hetero bool) error {
	if traceOut == "" && telemetryEvery == 0 {
		return nil
	}
	if telemetryEvery < 0 {
		return fmt.Errorf("nocsim: negative -telemetry-every %d", telemetryEvery)
	}
	if hetero {
		return fmt.Errorf("nocsim: -trace-out/-telemetry-every are not supported with -hetero")
	}
	if mode == hsnoc.HybridSDM {
		return fmt.Errorf("nocsim: -trace-out/-telemetry-every are not available for sdm mode")
	}
	if workers > 1 {
		return fmt.Errorf("nocsim: -trace-out/-telemetry-every require -workers 1")
	}
	return nil
}

// validatePolicyFlags rejects incoherent profile/policy flag
// combinations up front — a -policy without the profile it feeds on, or
// a -profile-in that nothing consumes, would otherwise run a simulation
// whose result silently ignores the flag.
func validatePolicyFlags(policySpec, profileIn, profileOut string, adaptive int64, mode hsnoc.Mode, hetero bool) error {
	if policySpec != "" && profileIn == "" {
		return fmt.Errorf("nocsim: -policy %s needs -profile-in (offline mode re-runs a profiled workload; extract one with -profile-out first)", policySpec)
	}
	if profileIn != "" && policySpec == "" {
		return fmt.Errorf("nocsim: -profile-in without -policy does nothing; pick a policy (static|threshold|greedy|sdm-gate)")
	}
	if profileIn != "" && profileOut != "" {
		return fmt.Errorf("nocsim: -profile-in and -profile-out are mutually exclusive (a policy re-run profiles a different config)")
	}
	if profileOut != "" || profileIn != "" || adaptive > 0 {
		if hetero {
			return fmt.Errorf("nocsim: profile/policy flags are not supported with -hetero")
		}
	}
	if profileOut != "" && mode == hsnoc.HybridSDM {
		return fmt.Errorf("nocsim: -profile-out is not available for sdm mode")
	}
	return nil
}

func main() {
	mode := flag.String("mode", "tdm", "switching mode: packet|tdm|sdm")
	pattern := flag.String("pattern", "tornado", "traffic pattern: ur|tornado|transpose|bc|neighbor")
	rate := flag.Float64("rate", 0.15, "offered load in flits/node/cycle")
	width := flag.Int("width", 6, "mesh width")
	height := flag.Int("height", 6, "mesh height")
	warmup := flag.Int("warmup", 8000, "warm-up cycles (not measured)")
	cycles := flag.Int("cycles", 40000, "measured cycles")
	packets := flag.Int("packets", 0, "stop measuring once this many packets are delivered (0 = run the full -cycles; -cycles still caps the run)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	slots := flag.Int("slots", 128, "slot-table capacity (tdm)")
	sharing := flag.Bool("sharing", false, "enable circuit-switched path sharing (tdm)")
	vcgating := flag.Bool("vcgating", false, "enable aggressive VC power gating")
	noSteal := flag.Bool("nostealing", false, "disable time-slot stealing (tdm)")
	staticSlots := flag.Bool("staticslots", false, "disable dynamic slot-table sizing (tdm)")
	workers := flag.Int("workers", 1, "executor parallelism")
	check := flag.Bool("check", false, "run the per-cycle invariant checker (conservation, credits, slot tables; ~2-4x slower, never changes results)")
	checkEvery := flag.Int("checkevery", 1, "with -check, run the checks every N cycles")
	hetero := flag.Bool("hetero", false, "run the heterogeneous system instead of synthetic traffic")
	cpuB := flag.String("cpu", "EQUAKE", "CPU benchmark (hetero)")
	gpuB := flag.String("gpu", "BLACKSCHOLES", "GPU benchmark (hetero)")
	heatmap := flag.Bool("heatmap", false, "print per-router and per-link utilisation heatmaps after the run")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (Perfetto) JSON timeline to this file (serial packet/tdm runs only)")
	telemetryEvery := flag.Int("telemetry-every", 0, "sample link/buffer/energy telemetry every N cycles and print time-series plots (serial packet/tdm runs only)")
	configPath := flag.String("config", "", "load the network configuration from this JSON file (overrides structural flags)")
	profileOut := flag.String("profile-out", "", "extract the run's traffic profile (per-flow volumes, link heat, slot state) to this JSON file (serial packet/tdm runs only)")
	profileIn := flag.String("profile-in", "", "load a traffic profile extracted by -profile-out; requires -policy")
	policySpec := flag.String("policy", "", "re-run the profiled workload under this policy's decision: static|threshold[:N]|greedy[:K]|sdm-gate[:P] (requires -profile-in)")
	adaptive := flag.Int64("adaptive", 0, "enable the online controller: re-rank flows and re-pin circuits every N cycles (tdm)")
	adaptiveTopK := flag.Int("adaptive-topk", 0, "flows the online controller pins per epoch (0 = default 8)")
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateFlags(*rate, *warmup, *cycles, *packets, *workers, *slots, *hetero); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg, err = hsnoc.LoadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
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
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateObsFlags(*traceOut, *telemetryEvery, cfg.Mode, cfg.Workers, *hetero); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validatePolicyFlags(*policySpec, *profileIn, *profileOut, cfg.AdaptiveEpoch, cfg.Mode, *hetero); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *policySpec != "" {
		pol, err := hsnoc.ParsePolicy(*policySpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		prof, err := hsnoc.ReadProfileFile(*profileIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if prof.ConfigHash != cfg.Hash() {
			fmt.Fprintf(os.Stderr, "nocsim: profile %s was extracted from a different configuration (profile %.12s..., flags %.12s...); re-extract it with -profile-out under the same flags\n",
				*profileIn, prof.ConfigHash, cfg.Hash())
			os.Exit(2)
		}
		d := pol.Decide(prof)
		cfg, err = hsnoc.ApplyDecision(cfg, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		m = cfg.Mode
		fmt.Printf("policy %s: %d pinned flows, restrict_setups=%v, slot_init=%d, use_sdm=%v, gated_planes=%d\n",
			pol.Name(), len(d.PinnedFlows), d.RestrictSetups, d.SlotInit, d.UseSDM, d.GatedPlanes)
	}

	if *hetero {
		runHetero(cfg, *cpuB, *gpuB, *warmup, *cycles)
		return
	}

	p, err := parsePattern(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := hsnoc.NewSynthetic(cfg, p, *rate)
	defer s.Close()
	wantTelemetry := *traceOut != "" || *telemetryEvery > 0 || *profileOut != ""
	if wantTelemetry || *heatmap {
		opt := hsnoc.TelemetryOptions{Every: *telemetryEvery, TrackFlows: *profileOut != ""}
		if *traceOut != "" {
			// Full-fidelity timelines need headroom; the default ring is
			// sized for summaries.
			opt.RingCapacity = 1 << 19
		}
		if _, err := s.AttachTelemetry(opt); err != nil && wantTelemetry {
			// -heatmap alone degrades gracefully to the per-router map
			// (which needs no probe); explicit tracing flags do not.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	s.Warmup(*warmup)
	var res hsnoc.Results
	if *packets > 0 {
		res = s.RunUntilPackets(int64(*packets), *cycles)
		if res.Packets < int64(*packets) {
			fmt.Fprintf(os.Stderr, "nocsim: only %d of %d target packets delivered within %d cycles\n",
				res.Packets, *packets, *cycles)
		}
	} else {
		res = s.Run(*cycles)
	}

	fmt.Printf("%v, pattern %v, offered %.3f flits/node/cycle, %d cycles\n", m, p, *rate, res.Cycles)
	fmt.Printf("  delivered packets       %d\n", res.Packets)
	fmt.Printf("  accepted throughput     %.4f flits/node/cycle (%.4f payload-normalised)\n", res.Throughput, res.PayloadThroughput)
	fmt.Printf("  avg network latency     %.1f cycles\n", res.AvgNetLatency)
	fmt.Printf("  avg total latency       %.1f cycles (incl. source queueing)\n", res.AvgTotalLatency)
	fmt.Printf("  circuit-switched flits  %.1f%%\n", 100*res.CSFlitFraction)
	fmt.Printf("  config traffic          %.2f%% of flits\n", 100*res.ConfigTrafficFraction)
	fmt.Printf("  circuits established    %d (active slot entries: %d)\n", res.CircuitsEstablished, res.ActiveSlotEntries)
	if res.Hitchhikes+res.VicinityRides > 0 {
		fmt.Printf("  path sharing            %d hitchhikes, %d vicinity rides\n", res.Hitchhikes, res.VicinityRides)
	}
	fmt.Printf("  energy                  %.2f uJ (dynamic %.2f, static %.2f)\n",
		res.Energy.TotalPJ/1e6, sum(res.Energy.DynamicPJ)/1e6, sum(res.Energy.StaticPJ)/1e6)
	if cfg.AdaptiveEpoch > 0 {
		fmt.Printf("  adaptive controller     %d epoch re-pin(s) every %d cycles\n", s.AdaptiveRepins(), cfg.AdaptiveEpoch)
	}
	if *profileOut != "" {
		prof, err := s.ExtractProfile()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := prof.WriteFile(*profileOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  profile                 %s (%d flows, config %.12s...)\n", *profileOut, len(prof.Flows), prof.ConfigHash)
	}
	if *check {
		if n := s.InvariantViolationCount(); n > 0 {
			fmt.Fprintf(os.Stderr, "nocsim: %d invariant violation(s):\n", n)
			for _, v := range s.InvariantViolations() {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("  invariants              clean, rolling digest %016x\n", s.RollingDigest())
	}
	if *telemetryEvery > 0 {
		if out, err := s.RenderTelemetry(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Println()
			fmt.Print(out)
		}
	}
	if *heatmap {
		if grid := s.UtilizationGrid(); grid != nil {
			fmt.Println()
			fmt.Print(textplot.Heatmap("router utilisation", grid))
		}
		if out, err := s.RenderLinkHeatmap(); err == nil {
			fmt.Println()
			fmt.Print(out)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := s.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		rec := s.Telemetry()
		fmt.Printf("  trace                   %s (%d events recorded, %d dropped)\n",
			*traceOut, rec.Ring().Len(), rec.Dropped())
	}
	d := s.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		fmt.Printf("  WARNING: invariant violations: %+v\n", d)
		os.Exit(1)
	}
}

func runHetero(cfg hsnoc.Config, cpuB, gpuB string, warmup, cycles int) {
	h, err := hsnoc.NewHeterogeneous(cfg, cpuB, gpuB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer h.Close()
	h.Warmup(warmup)
	res := h.Run(cycles)
	fmt.Printf("%v, heterogeneous mix %s/%s, %d cycles\n", cfg.Mode, gpuB, cpuB, cycles)
	fmt.Printf("  CPU instructions        %d\n", res.CPUInstructions)
	fmt.Printf("  GPU memory operations   %d\n", res.GPUIterations)
	fmt.Printf("  GPU injection rate      %.3f flits/node/cycle\n", res.GPUInjectionRate)
	fmt.Printf("  GPU circuit-switched    %.1f%%\n", 100*res.GPUCSFraction)
	fmt.Printf("  avg CPU / GPU latency   %.1f / %.1f cycles\n", res.AvgCPULatency, res.AvgGPULatency)
	if res.Hitchhikes+res.VicinityRides > 0 {
		fmt.Printf("  path sharing            %d hitchhikes, %d vicinity rides\n", res.Hitchhikes, res.VicinityRides)
	}
	fmt.Printf("  energy                  %.2f uJ\n", res.Energy.TotalPJ/1e6)
	if n := h.InvariantViolationCount(); n > 0 {
		fmt.Fprintf(os.Stderr, "nocsim: %d invariant violation(s):\n", n)
		for _, v := range h.InvariantViolations() {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	d := h.Diagnose()
	if d.MisroutedCS != 0 || d.DroppedCS != 0 || d.LatchConflicts != 0 {
		fmt.Printf("  WARNING: invariant violations: %+v\n", d)
		os.Exit(1)
	}
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
