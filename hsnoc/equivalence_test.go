package hsnoc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"tdmnoc/internal/difftest"
	"tdmnoc/internal/topology"
)

// simRun is a Simulator under the differential harness: warm cycles of
// warm-up, then the measured region.
type simRun struct {
	*Simulator
	traced     bool
	warm, done int
}

func (r *simRun) Advance(cycles int) {
	w := min(cycles, max(r.warm-r.done, 0))
	r.Warmup(w)
	if cycles > w {
		r.Run(cycles - w)
	}
	r.done += cycles
}

func (r *simRun) ComponentDigests(yield func(string, uint64)) { r.net.ComponentDigests(yield) }

// simOutput reads the named output: the Results and re-pin count of
// every point, and the trace, telemetry summary, per-link flit counters
// and flow stats of a traced one.
func simOutput(name string) func(*simRun) ([]byte, error) {
	return func(r *simRun) ([]byte, error) {
		switch {
		case name == "results":
			return fmt.Appendf(nil, "%+v", r.Run(0)), nil
		case name == "repins":
			return fmt.Appendf(nil, "%d", r.AdaptiveRepins()), nil
		case !r.traced:
			return nil, nil
		}
		switch name {
		case "trace":
			var b bytes.Buffer
			err := r.WriteTrace(&b)
			return b.Bytes(), err
		case "summary":
			return json.Marshal(r.rec.Summary())
		case "links":
			var b []byte
			for n := range r.net.Mesh().Nodes() {
				for p := range topology.NumPorts {
					b = fmt.Appendf(b, "%d ", r.rec.LinkFlits(n, p))
				}
			}
			return b, nil
		case "flows":
			return json.Marshal(r.rec.FlowStats())
		}
		panic("unknown output " + name)
	}
}

// simRow is one harness row over a Simulator.
type simRow struct {
	name        string
	cfg         Config
	build       func(Config) (*Simulator, error) // nil: tornado at 0.15
	warm, run   int
	checkpoints int                                // 0: the harness default
	tel         func(workers int) TelemetryOptions // a traced point's recorder
	points      []difftest.Point
	outputs     []string // compared besides "results"
	wraps       bool     // the rings drop events, so the trace is not compared
	proof       func(*simRun) error
}

// harnessCase applies each point's workers, checking and telemetry to the
// row's config. Every point must deliver, and a traced one whose rings
// do not wrap must drop nothing.
func (row simRow) harnessCase() difftest.Case[*simRun] {
	outputs := map[string]func(*simRun) ([]byte, error){}
	for _, name := range append([]string{"results"}, row.outputs...) {
		outputs[name] = simOutput(name)
	}
	return difftest.Case[*simRun]{Name: row.name, Cycles: row.warm + row.run, Checkpoints: row.checkpoints,
		Points: row.points, Outputs: outputs,
		Build: func(p difftest.Point) *simRun {
			cfg := row.cfg
			cfg.Workers, cfg.CheckInvariants = p.Workers, p.Checked
			build := row.build
			if build == nil {
				build = func(cfg Config) (*Simulator, error) { return New(cfg, Synthetic{Pattern: Tornado, Rate: 0.15}) }
			}
			s, err := build(cfg)
			if err == nil && p.Traced {
				_, err = s.AttachTelemetry(row.tel(p.Workers))
			}
			if err != nil || p.AlwaysTick {
				panic(fmt.Sprintf("%s %+v: %v", row.name, p, err))
			}
			return &simRun{Simulator: s, traced: p.Traced, warm: row.warm}
		},
		Proof: func(r *simRun) error {
			if r.Run(0).Packets == 0 {
				return errors.New("the run delivered nothing")
			}
			if r.traced && !row.wraps && r.rec.Dropped() != 0 {
				return fmt.Errorf("rings dropped %d events; shorten the run", r.rec.Dropped())
			}
			if row.proof != nil {
				return row.proof(r)
			}
			return nil
		},
	}
}

// ringSplit sizes a traced point's rings: serial events fit one ring,
// and each of w > 1 shards holds twice its share.
func ringSplit(serial int) func(int) TelemetryOptions {
	return func(w int) TelemetryOptions {
		if w > 1 {
			return TelemetryOptions{RingCapacity: 2 * serial / w}
		}
		return TelemetryOptions{RingCapacity: serial}
	}
}

// tdm is a seeded HybridTDM config, checked every 64 cycles when
// checking is on, edited by f.
func tdm(w, h int, seed uint64, f func(*Config)) Config {
	cfg := DefaultConfig(w, h)
	cfg.Mode, cfg.Seed, cfg.CheckInterval = HybridTDM, seed, 64
	if f != nil {
		f(&cfg)
	}
	return cfg
}

func repinned(r *simRun) error {
	if r.AdaptiveRepins() == 0 {
		return errors.New("the online controller never re-pinned")
	}
	return nil
}

// TestEquivalence holds the simulator's "≡" rows: at any worker count,
// traced or not, checked or not, a run's state digests at checkpoints,
// rolling digest, Results and — where traced — trace, telemetry
// summary, profile and flow-stat bytes are the reference point's.
func TestEquivalence(t *testing.T) {
	mix := tdm(6, 6, 1, func(c *Config) { c.PathSharing, c.VCPowerGating, c.CheckInterval = true, true, 4 })
	mixBuild := func(cfg Config) (*Simulator, error) { return New(cfg, Mix{CPU: "ART", GPU: "LPS"}) }
	adaptive := func(c *Config) { c.AdaptiveEpoch, c.AdaptiveTopK = 256, 8 }
	flows := func(int) TelemetryOptions {
		return TelemetryOptions{Every: 64, RingCapacity: 1 << 17, TrackFlows: true}
	}
	checked, traced := difftest.Point{Checked: true}, difftest.Point{Traced: true}
	tracedChecked := append([]difftest.Point{{Workers: 1, Checked: true}},
		difftest.Matrix(difftest.Point{Traced: true, Checked: true}, 1, 2, 3, 4, 8)...)
	for _, row := range []simRow{
		{name: "tornado-6x6", cfg: tdm(6, 6, 7, func(c *Config) { c.CheckInterval = 1 }), warm: 800, run: 1200, points: difftest.Matrix(checked, 1, 4)},
		{name: "hetero-6x6-checked", cfg: mix, build: mixBuild, warm: 500, run: 2500, points: difftest.Matrix(checked, 1, 4)},
		{name: "hetero-6x6-traced", cfg: mix, build: mixBuild, warm: 200, run: 600, tel: ringSplit(1 << 18),
			points: append([]difftest.Point{{Workers: 1}}, difftest.Matrix(traced, 1, 2, 3, 4, 8)...), outputs: []string{"trace"}},
		{name: "traced-4x4", cfg: tdm(4, 4, 11, nil), warm: 300, run: 1200, tel: flows, points: tracedChecked,
			outputs: []string{"trace", "summary", "links"}},
		// Rows split unevenly across workers.
		{name: "traced-5x3-ragged", cfg: tdm(5, 3, 11, nil), warm: 300, run: 1200, tel: flows, points: tracedChecked,
			outputs: []string{"trace", "summary"}},
		// The online controller's re-pins on a ragged mesh: the least
		// regular emission order a shard ring has to keep.
		{name: "adaptive-5x7", cfg: tdm(5, 7, 11, adaptive), warm: 300, run: 1200, tel: ringSplit(1 << 18),
			points: difftest.Matrix(difftest.Point{Traced: true, Checked: true}, 1, 2, 3, 4, 8), outputs: []string{"trace", "repins"},
			proof: repinned},
		// Slot tables resizing: the run is too long for its rings, which
		// keep the window holding the first doubling. WriteTrace checks
		// each shard's merge order.
		{name: "resize-8x8", cfg: tdm(8, 8, 1, nil), warm: 200, run: 650, tel: ringSplit(1 << 18), wraps: true,
			build:  func(cfg Config) (*Simulator, error) { return New(cfg, Synthetic{Pattern: UniformRandom, Rate: 0.4}) },
			points: difftest.Matrix(traced, 1, 2, 3, 4, 8),
			proof: func(r *simRun) error {
				var b bytes.Buffer
				if err := r.WriteTrace(&b); err != nil || !bytes.Contains(b.Bytes(), []byte(`"name":"slot-resize"`)) {
					return fmt.Errorf("the trace holds no slot-table resize (%v)", err)
				}
				return nil
			}},
		// A 32x32 state digest costs ≈80 ms: two checkpoints, not eight.
		{name: "flows-32x32", cfg: tdm(32, 32, 7, func(c *Config) { c.PathSharing = true }), warm: 200, run: 400, checkpoints: 2, wraps: true,
			build: func(cfg Config) (*Simulator, error) { return New(cfg, Synthetic{Pattern: Tornado, Rate: 0.20}) },
			tel: func(int) TelemetryOptions {
				return TelemetryOptions{Every: 64, RingCapacity: 1 << 16, TrackFlows: true}
			},
			points: difftest.Matrix(traced, 1, 8, 16), outputs: []string{"flows"},
			proof: func(r *simRun) error {
				if len(r.rec.FlowStats()) == 0 {
					return errors.New("no flow tracked")
				}
				return nil
			}},
	} {
		difftest.Run(t, row.harnessCase())
	}
}

// TestHarnessNamesDifferingOutput: when only a trace byte differs, the
// harness names the trace, not a digest.
func TestHarnessNamesDifferingOutput(t *testing.T) {
	c := simRow{name: "trace-byte", cfg: tdm(4, 4, 11, nil), warm: 100, run: 200,
		tel:    func(int) TelemetryOptions { return TelemetryOptions{RingCapacity: 1 << 16} },
		points: difftest.Matrix(difftest.Point{Traced: true}, 1, 2), outputs: []string{"trace"}}.harnessCase()
	trace := c.Outputs["trace"]
	c.Outputs["trace"] = func(r *simRun) ([]byte, error) {
		b, err := trace(r)
		if r.cfg.Workers == 2 {
			b[len(b)/2] ^= 1
		}
		return b, err
	}
	var m *difftest.Mismatch
	if err := difftest.Check(c, false); !errors.As(err, &m) || m.What != "trace" || m.Checkpoint != 0 || m.Cycle != 0 {
		t.Fatalf("harness reported %v; want the trace named", err)
	}
}

// TestTracedParallelRace drives a fully traced Workers=8 run to
// completion including drain and export; CI runs this package under
// -race, making it the data-race canary for per-worker shard writes.
func TestTracedParallelRace(t *testing.T) {
	s := NewSynthetic(tdm(4, 4, 11, func(c *Config) { c.Workers, c.CheckInvariants = 8, true }), UniformRandom, 0.25)
	defer s.Close()
	rec, err := s.AttachTelemetry(TelemetryOptions{Every: 32, RingCapacity: 1 << 16})
	if err != nil {
		t.Fatalf("AttachTelemetry: %v", err)
	}
	s.Warmup(200)
	res := s.Run(1000)
	s.StopTraffic()
	s.Drain(2000)
	if err := s.InvariantError(); err != nil {
		t.Fatalf("invariant violations: %v", err)
	}
	if res.Packets == 0 || rec.Events() == 0 {
		t.Fatalf("run moved no traffic (packets=%d, events=%d)", res.Packets, rec.Events())
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
}
