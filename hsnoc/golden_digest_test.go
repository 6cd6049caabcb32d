package hsnoc

import (
	"fmt"
	"testing"

	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
)

// digestPin is one scenario's determinism digests: the full-state digest
// after each of three stretches of one run, and the rolling digest of
// that run checked every cycle and, separately, every seventh cycle.
type digestPin struct {
	Scenario string   `json:"scenario"`
	Cycles   []int64  `json:"cycles"`
	State    []string `json:"state_digests"`
	Rolling1 string   `json:"rolling_digest_interval_1"`
	Rolling7 string   `json:"rolling_digest_interval_7"`
}

// digestScenario builds one checked simulator; proof, if set, fails the
// test when the run did not exercise what the scenario is named for.
type digestScenario struct {
	name  string
	build func(cfg Config) (*Simulator, error)
	cfg   Config
	proof func(s *Simulator, res Results) error
}

// TestGoldenStateDigests pins the digest itself: StateDigest and
// RollingDigest over every state-holding component the engine has (router
// pipelines, VC gates of both kinds, slot tables through a resize and an
// adaptive re-pin, DLTs, NIs, a parallel executor, the tile models, a
// trace replayer, and the online controller on a parallel Section V
// mix). A refactor of the state walk must leave every value here
// unchanged; only a deliberate change to what the digest covers may
// regenerate the file (-update).
func TestGoldenStateDigests(t *testing.T) {
	tdm := func(w, h int) Config {
		cfg := DefaultConfig(w, h)
		cfg.Mode = HybridTDM
		return cfg
	}
	hopVCt := tdm(6, 6)
	hopVCt.PathSharing = true
	hopVCt.VCPowerGating = true
	latGate := tdm(6, 6)
	latGate.LatencyBasedVCGating = true
	adaptive := tdm(4, 4)
	adaptive.Seed = 11
	adaptive.AdaptiveEpoch = 256
	adaptive.AdaptiveTopK = 8
	// The controller as a Section V system runs it: the hop config, two
	// workers, and the default pin count.
	adaptiveMix := tdm(6, 6)
	adaptiveMix.PathSharing = true
	adaptiveMix.AdaptiveEpoch = 256
	adaptiveMix.Workers = 2
	repinned := func(s *Simulator, _ Results) error {
		if s.AdaptiveRepins() == 0 {
			return fmt.Errorf("the online controller never re-pinned")
		}
		return nil
	}
	par := tdm(5, 3)
	par.Workers = 3
	synthetic := func(p Pattern, rate float64) func(Config) (*Simulator, error) {
		return func(cfg Config) (*Simulator, error) { return New(cfg, Synthetic{Pattern: p, Rate: rate}) }
	}
	tr := trace.Synthesize(traffic.Hotspot, topology.NewMesh(6, 6), 0.12, 5, 1500, 42)

	scenarios := []digestScenario{
		{name: "packet-6x6-tornado", cfg: DefaultConfig(6, 6), build: synthetic(Tornado, 0.15)},
		{name: "tdm-hop-vct-6x6-transpose", cfg: hopVCt, build: synthetic(Transpose, 0.1),
			proof: func(_ *Simulator, res Results) error {
				if res.Hitchhikes+res.VicinityRides == 0 {
					return fmt.Errorf("no path sharing: the DLT never served a ride")
				}
				return nil
			}},
		{name: "tdm-latency-gating-6x6-uniform", cfg: latGate, build: synthetic(UniformRandom, 0.1)},
		{name: "tdm-resize-6x6-uniform", cfg: tdm(6, 6), build: synthetic(UniformRandom, 0.3),
			proof: func(_ *Simulator, res Results) error {
				if res.ActiveSlotEntries <= 16 {
					return fmt.Errorf("active slot region %d: the resizer never doubled", res.ActiveSlotEntries)
				}
				return nil
			}},
		{name: "tdm-adaptive-4x4-tornado", cfg: adaptive, build: synthetic(Tornado, 0.15), proof: repinned},
		{name: "tdm-5x3-workers3-uniform", cfg: par, build: synthetic(UniformRandom, 0.15)},
		{name: "mix-LPS-ART-6x6-hop-vct", cfg: hopVCt,
			build: func(cfg Config) (*Simulator, error) { return New(cfg, Mix{CPU: "ART", GPU: "LPS"}) }},
		{name: "replay-hotspot-6x6-tdm", cfg: tdm(6, 6),
			build: func(cfg Config) (*Simulator, error) { return New(cfg, Replay{Trace: tr}) }},
		{name: "mix-BLACKSCHOLES-EQUAKE-6x6-hop-adaptive-workers2", cfg: adaptiveMix, proof: repinned,
			build: func(cfg Config) (*Simulator, error) { return New(cfg, Mix{CPU: "EQUAKE", GPU: "BLACKSCHOLES"}) }},
	}
	var pins []digestPin
	for _, sc := range scenarios {
		pin := digestPin{Scenario: sc.name}
		for _, interval := range []int{1, 7} {
			cfg := sc.cfg
			cfg.CheckInvariants = true
			cfg.CheckInterval = interval
			s, err := sc.build(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			s.Warmup(300)
			var state []string
			var cycles []int64
			var res Results
			for stretch := 0; stretch < 3; stretch++ {
				if stretch > 0 {
					res = s.Run(600)
				}
				state = append(state, fmt.Sprintf("%016x", s.StateDigest()))
				cycles = append(cycles, int64(300+600*stretch))
			}
			if err := s.InvariantError(); err != nil {
				t.Errorf("%s interval %d: %v", sc.name, interval, err)
			}
			if sc.proof != nil {
				if err := sc.proof(s, res); err != nil {
					t.Errorf("%s: %v", sc.name, err)
				}
			}
			rolling := fmt.Sprintf("%016x", s.RollingDigest())
			s.Close()
			if interval == 1 {
				pin.Cycles, pin.State, pin.Rolling1 = cycles, state, rolling
				continue
			}
			// Checking only observes: the cadence cannot move the state.
			if fmt.Sprint(state) != fmt.Sprint(pin.State) {
				t.Errorf("%s: state digests %v at interval 7, %v at interval 1", sc.name, state, pin.State)
			}
			pin.Rolling7 = rolling
		}
		pins = append(pins, pin)
	}
	checkGolden(t, "golden-digest.json", pins)
}
