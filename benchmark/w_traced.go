package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
)

// tracedRate is the offered load of both traced6x6 patterns.
const tracedRate = 0.20

type tracedSize struct {
	warm, measure int
	ring          int
}

func tracedSizeFor(e *env) tracedSize {
	// 11000 simulated cycles per sizing-second and phase: two patterns x
	// (full-fidelity profile run + export + ProfileFlows re-run) is ~1
	// host second on the reference sandbox in its slow phases (README,
	// "Sizing").
	cycles := int(11000 * e.seconds)
	if e.smoke {
		return tracedSize{warm: 1000, measure: 6000, ring: 1 << 14}
	}
	return tracedSize{warm: cycles / 14, measure: cycles - cycles/14, ring: 1 << 20}
}

// tracedConfig is the 6x6 Hybrid-TDM-hop network the nocsim profile
// path is driven on.
func tracedConfig(seed uint64) hsnoc.Config {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridTDM
	cfg.PathSharing = true
	cfg.Seed = seed
	return cfg
}

var tracedPatterns = []hsnoc.Pattern{hsnoc.Tornado, hsnoc.Transpose}

// profileTelemetry is what `nocsim -profile-out -trace-out` attaches:
// every kind, flows tracked, a ring sized for a full-fidelity timeline.
func profileTelemetry(ring int) hsnoc.TelemetryOptions {
	return hsnoc.TelemetryOptions{TrackFlows: true, RingCapacity: ring}
}

func energyPerFlit(r hsnoc.Results) float64 {
	flits := r.Throughput * float64(r.Cycles) * 36
	if flits == 0 {
		return 0
	}
	return r.Energy.TotalPJ / flits
}

func runTraced(e *env) outcome {
	size := tracedSizeFor(e)
	var o outcome
	o.attempted = 2 * len(tracedPatterns)
	dir, err := scratchDir(e.root, "traced6x6")
	if err != nil {
		o.fail(o.attempted, "traced6x6: %v", err)
		return o
	}
	defer os.RemoveAll(dir)

	var built *hsnoc.Simulator
	su := setups{fn: func() (func(), error) {
		s := hsnoc.NewSynthetic(tracedConfig(e.seed), tracedPatterns[0], tracedRate)
		if _, err := s.AttachTelemetry(profileTelemetry(size.ring)); err != nil {
			s.Close()
			return nil, err
		}
		built = s
		return s.Close, nil
	}}
	if err := su.first(e.setups); err != nil {
		o.fail(o.attempted, "traced6x6: set-up: %v", err)
		return o
	}
	first := built // the simulator of op 0

	var simS float64
	var allocs uint64
	var events, drops uint64
	var extractMS, decideMS, writeMS, summaryMS, exported []float64
	var deltas []float64
	start := time.Now()
	for pi, pat := range tracedPatterns {
		var decided hsnoc.Config
		var profiled hsnoc.Results
		profileOK := false
		op := 2 * pi
		what := fmt.Sprintf("traced %v profile run", pat)
		guard(&o, what, func() {
			root := e.tr.begin("op", 0, op, -1)
			defer e.tr.end(root)
			cfg := tracedConfig(e.seed)
			s := first
			first = nil
			if s == nil {
				sp := e.tr.begin("hsnoc.NewSynthetic", 0, op, root)
				s = hsnoc.NewSynthetic(cfg, pat, tracedRate)
				_, err := s.AttachTelemetry(profileTelemetry(size.ring))
				e.tr.end(sp)
				if err != nil {
					s.Close()
					o.fail(1, "%s: %v", what, err)
					return
				}
			}
			defer s.Close()
			var res hsnoc.Results
			d, a := simulate(e.tr, op, root, func() { s.Warmup(size.warm) }, func() { res = s.Run(size.measure) })
			simS += d
			allocs += a
			if why, ok := healthy(pat, 6, 6, tracedRate, res.PayloadThroughput); !ok {
				o.fail(1, "%s: %s", what, why)
				return
			}

			t0 := time.Now()
			sp := e.tr.begin("ExtractProfile", 0, op, root)
			prof, err := s.ExtractProfile()
			e.tr.end(sp)
			extractMS = append(extractMS, 1e3*time.Since(t0).Seconds())
			if err != nil {
				o.fail(1, "%s: %v", what, err)
				return
			}
			pol, err := hsnoc.ParsePolicy("greedy")
			if err != nil {
				o.fail(1, "%s: %v", what, err)
				return
			}
			t0 = time.Now()
			sp = e.tr.begin("Decide", 0, op, root)
			decision := pol.Decide(prof)
			e.tr.end(sp)
			decideMS = append(decideMS, 1e3*time.Since(t0).Seconds())
			decided, err = hsnoc.ApplyDecision(cfg, decision)
			if err == nil {
				err = decided.Validate()
			}
			if err != nil {
				o.fail(1, "%s: %v", what, err)
				return
			}

			rec := s.Telemetry()
			n := 0
			for _, r := range rec.Rings() {
				n += r.Len()
			}
			t0 = time.Now()
			sp = e.tr.begin("WriteTrace", 0, op, root)
			err = writeTraceFile(s, filepath.Join(dir, fmt.Sprintf("trace-%d.json", pi)))
			e.tr.end(sp)
			writeMS = append(writeMS, 1e3*time.Since(t0).Seconds())
			exported = append(exported, float64(n))
			if err != nil {
				o.fail(1, "%s: %v", what, err)
				return
			}
			t0 = time.Now()
			sum := rec.Summary()
			summaryMS = append(summaryMS, 1e3*time.Since(t0).Seconds())
			events += sum.Events
			drops += sum.RingDrops
			profiled = res
			profileOK = true
		})

		op = 2*pi + 1
		what = fmt.Sprintf("traced %v greedy re-run", pat)
		if !profileOK {
			o.fail(1, "%s: skipped, its profile run failed", what)
			continue
		}
		guard(&o, what, func() {
			root := e.tr.begin("op", 0, op, -1)
			defer e.tr.end(root)
			sp := e.tr.begin("hsnoc.NewSynthetic", 0, op, root)
			s := hsnoc.NewSynthetic(decided, pat, tracedRate)
			_, err := s.AttachTelemetry(hsnoc.TelemetryOptions{KindMask: obs.ProfileFlows, RingSample: 4})
			e.tr.end(sp)
			defer s.Close()
			if err != nil {
				o.fail(1, "%s: %v", what, err)
				return
			}
			var res hsnoc.Results
			d, a := simulate(e.tr, op, root, func() { s.Warmup(size.warm) }, func() { res = s.Run(size.measure) })
			simS += d
			allocs += a
			if why, ok := healthy(pat, 6, 6, tracedRate, res.PayloadThroughput); !ok {
				o.fail(1, "%s: %s", what, why)
				return
			}
			if base := energyPerFlit(profiled); base > 0 {
				deltas = append(deltas, 100*(energyPerFlit(res)/base-1))
			}
		})
	}
	o.wallS = time.Since(start).Seconds()
	o.rssMB = selfRSSMB()
	// Each set-up allocates a 40 MB ring: sampling between the
	// simulations would raise the peak just read, so the later samples
	// come after it.
	if err := su.again(8); err != nil {
		o.fail(1, "traced6x6: set-up sample: %v", err)
	}
	o.setupS = su.center()
	cyclesPerSim := float64(size.warm + size.measure)
	o.work = 36 * cyclesPerSim * float64(o.attempted)
	o.workS = simS

	o.set("flit.allocs_per_kcycle", 1000*float64(allocs)/(cyclesPerSim*float64(o.attempted)))
	o.set("obs.events_per_cycle", float64(events)/(cyclesPerSim*float64(len(tracedPatterns))))
	o.set("obs.ring_drops", float64(drops))
	if n := mean(exported); n > 0 {
		o.set("obs.write_trace_ms_per_mevent", mean(writeMS)/(n/1e6))
	}
	o.set("obs.summary_ms", mean(summaryMS))
	o.set("policy.extract_ms", mean(extractMS))
	o.set("policy.decide_ms", mean(decideMS))
	o.set("policy.greedy_energy_delta_pct", mean(deltas))

	for _, pat := range tracedPatterns {
		gatePrefix(&o, fmt.Sprintf("traced %v", pat), tracedConfig(e.seed), pat, tracedRate, prefixFor(e, false))
	}
	return o
}

// writeTraceFile exports the simulator's timeline the way `nocsim
// -trace-out` does (WriteTrace buffers internally).
func writeTraceFile(s *hsnoc.Simulator, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
