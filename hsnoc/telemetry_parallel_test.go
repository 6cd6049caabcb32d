package hsnoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// tracedScenario builds the traced worker-matrix scenario: a 4x4
// hybrid-TDM mesh under tornado traffic, invariant checking on so the
// rolling digest is collected.
func tracedScenario(workers int) Config {
	cfg := DefaultConfig(4, 4)
	cfg.Mode = HybridTDM
	cfg.Seed = 11
	cfg.Workers = workers
	cfg.CheckInvariants = true
	cfg.CheckInterval = 64
	return cfg
}

// tracedRun runs the scenario traced and returns the exported trace
// bytes, the marshalled telemetry summary, and the rolling digest.
func tracedRun(t *testing.T, cfg Config) (trace, summary []byte, digest uint64) {
	t.Helper()
	s := NewSynthetic(cfg, Tornado, 0.15)
	defer s.Close()
	rec, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 17})
	if err != nil {
		t.Fatalf("AttachTelemetry(workers=%d): %v", cfg.Workers, err)
	}
	s.Warmup(300)
	s.Run(1200)
	if err := s.InvariantError(); err != nil {
		t.Fatalf("workers=%d: invariant violations: %v", cfg.Workers, err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("workers=%d: ring dropped %d events — scenario must be drop-free", cfg.Workers, d)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace(workers=%d): %v", cfg.Workers, err)
	}
	sum, err := json.Marshal(rec.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum, s.RollingDigest()
}

// TestTraceBytesWorkerInvariant is the tentpole acceptance property:
// the exported Perfetto trace and the telemetry summary are
// byte-identical at every worker count, on the square 4x4 mesh and on
// a ragged 5x3 one whose rows split unevenly across workers — sharded
// recording plus the deterministic merge reconstruct the serial
// timeline exactly.
func TestTraceBytesWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("worker matrix in -short mode")
	}
	ragged := func(workers int) Config {
		cfg := tracedScenario(workers)
		cfg.Width, cfg.Height = 5, 3
		return cfg
	}
	for _, mesh := range []struct {
		name string
		cfg  func(workers int) Config
	}{{"4x4", tracedScenario}, {"5x3", ragged}} {
		trace1, sum1, _ := tracedRun(t, mesh.cfg(1))
		for _, w := range []int{2, 3, 4, 8} {
			traceW, sumW, _ := tracedRun(t, mesh.cfg(w))
			if !bytes.Equal(trace1, traceW) {
				t.Errorf("%s: trace bytes differ between Workers=1 (%d bytes) and Workers=%d (%d bytes)",
					mesh.name, len(trace1), w, len(traceW))
			}
			if !bytes.Equal(sum1, sumW) {
				t.Errorf("%s: summaries differ between Workers=1 and Workers=%d:\n %s\n %s", mesh.name, w, sum1, sumW)
			}
		}
	}
}

// TestShardRingsInMergeKeyOrder pins the premise the export's k-way
// merge rests on: every shard ring is non-decreasing in the
// (cycle, class, emitter) merge key, so merging the rings in place is
// the serial timeline. WriteTrace checks each shard's order as it
// merges and names the first shard that goes backwards. The scenarios
// are the ones whose emission is least regular — a ragged mesh under
// the online controller's re-pins, slot tables resizing on an 8x8 mesh,
// and the Section V tile models — at five worker counts. Where no ring
// wraps, every event of the run is checked and the merged trace must
// equal the serial one byte for byte; the resizing run is too long for
// that, and its rings keep the window holding the first doubling.
func TestShardRingsInMergeKeyOrder(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("worker matrix in -short mode or under the race detector")
	}
	tdm := func(w, h, workers int) Config {
		cfg := DefaultConfig(w, h)
		cfg.Mode = HybridTDM
		cfg.Workers = workers
		return cfg
	}
	for _, sc := range []struct {
		name      string
		build     func(workers int) (*Simulator, error)
		warm, run int
		wraps     bool // the rings drop, so only the order is checked
		proof     func(s *Simulator, trace []byte) error
	}{
		{name: "adaptive-5x7-tornado", warm: 300, run: 1200,
			build: func(workers int) (*Simulator, error) {
				cfg := tdm(5, 7, workers)
				cfg.Seed = 11
				cfg.AdaptiveEpoch = 256
				cfg.AdaptiveTopK = 8
				return NewSynthetic(cfg, Tornado, 0.15), nil
			},
			proof: func(s *Simulator, _ []byte) error {
				if s.AdaptiveRepins() == 0 {
					return fmt.Errorf("the online controller never re-pinned")
				}
				return nil
			}},
		{name: "resize-8x8-uniform", warm: 200, run: 650, wraps: true,
			build: func(workers int) (*Simulator, error) {
				return NewSynthetic(tdm(8, 8, workers), UniformRandom, 0.4), nil
			},
			proof: func(_ *Simulator, trace []byte) error {
				if !bytes.Contains(trace, []byte(`"name":"slot-resize"`)) {
					return fmt.Errorf("the trace holds no slot-table resize")
				}
				return nil
			}},
		{name: "mix-LPS-ART-6x6", warm: 200, run: 600,
			build: func(workers int) (*Simulator, error) {
				cfg := tdm(6, 6, workers)
				cfg.PathSharing = true
				cfg.VCPowerGating = true
				return NewHeterogeneous(cfg, "ART", "LPS")
			}},
	} {
		var serial []byte
		for _, w := range []int{1, 2, 3, 4, 8} {
			s, err := sc.build(w)
			if err != nil {
				t.Fatal(err)
			}
			// 1<<18 events hold a short run serially; shards split it,
			// so a ring of twice their share holds as much.
			ring := 1 << 18
			if w > 1 {
				ring = 2 * ring / w
			}
			rec, err := s.AttachTelemetry(TelemetryOptions{RingCapacity: ring})
			if err != nil {
				s.Close()
				t.Fatalf("%s Workers=%d: %v", sc.name, w, err)
			}
			s.Warmup(sc.warm)
			s.Run(sc.run)
			var buf bytes.Buffer
			err = s.WriteTrace(&buf)
			if err == nil && sc.proof != nil {
				err = sc.proof(s, buf.Bytes())
			}
			dropped := rec.Dropped()
			s.Close()
			switch {
			case err != nil:
				t.Errorf("%s Workers=%d (%d shards): %v", sc.name, w, rec.Shards(), err)
			case sc.wraps:
			case dropped != 0:
				t.Errorf("%s Workers=%d: rings dropped %d events; shorten the run", sc.name, w, dropped)
			case w == 1:
				serial = buf.Bytes()
			case !bytes.Equal(buf.Bytes(), serial):
				t.Errorf("%s: trace at Workers=%d (%d bytes) differs from the serial one (%d bytes)",
					sc.name, w, buf.Len(), len(serial))
			}
		}
	}
}

// TestTracedDigestMatchesUntraced asserts tracing is a pure observer:
// at every worker count the traced run's rolling invariant digest equals
// the untraced serial run's digest.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("worker matrix in -short mode")
	}
	// Untraced serial baseline.
	base := NewSynthetic(tracedScenario(1), Tornado, 0.15)
	base.Warmup(300)
	base.Run(1200)
	want := base.RollingDigest()
	base.Close()
	if want == 0 {
		t.Fatal("baseline digest is zero — invariant checking not active")
	}
	for _, w := range []int{1, 4, 8} {
		if _, _, got := tracedRun(t, tracedScenario(w)); got != want {
			t.Errorf("traced digest at Workers=%d = %#x, untraced serial = %#x", w, got, want)
		}
	}
}

// TestTracedParallelRace drives a fully traced Workers=8 run to
// completion including drain and export; CI runs this package under
// -race, making it the data-race canary for per-worker shard writes.
func TestTracedParallelRace(t *testing.T) {
	s := NewSynthetic(tracedScenario(8), UniformRandom, 0.25)
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
