package hsnoc

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"tdmnoc/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden Perfetto trace")

// goldenSim runs the Fig.4-miniature scenario used by the golden trace:
// uniform traffic at 0.35 on a 4x4 hybrid-TDM mesh — loaded enough to
// exercise setups, acks, failures, teardowns and slot steals.
func goldenSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := DefaultConfig(4, 4)
	cfg.Mode = HybridTDM
	cfg.Seed = 1
	s := NewSynthetic(cfg, UniformRandom, 0.35)
	t.Cleanup(s.Close)
	if _, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 19}); err != nil {
		t.Fatalf("AttachTelemetry: %v", err)
	}
	s.Warmup(500)
	s.Run(4000)
	return s
}

// TestGoldenPerfettoTrace is the issue's acceptance test. The full
// trace is tens of megabytes, so the golden file pins its SHA-256
// digest instead of the bytes (regenerate with -update after an
// intentional format change); the test additionally validates the
// trace structurally: valid Chrome trace-event JSON, well-paired flow
// events, in-range timestamps, and presence of the CS protocol events
// (setup/ack/teardown) and slot steals.
func TestGoldenPerfettoTrace(t *testing.T) {
	s := goldenSim(t)
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if rec := s.Telemetry(); rec.Dropped() != 0 {
		t.Fatalf("golden scenario dropped %d events — raise the ring capacity", rec.Dropped())
	}

	digest := fmt.Sprintf("%x %d\n", sha256.Sum256(buf.Bytes()), buf.Len())
	golden := filepath.Join("testdata", "golden-trace.sha256")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (regenerate with `go test ./hsnoc -run Golden -update`): %v", err)
	}
	if string(want) != digest {
		t.Errorf("trace digest changed:\n got %swant %s(intentional format changes: regenerate with -update)", digest, want)
	}

	var tf struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Name string `json:"name"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.OtherData["mode"] != "Hybrid-TDM" || tf.OtherData["mesh"] != "4x4" || tf.OtherData["ring_drops"] != "0" {
		t.Errorf("otherData = %v", tf.OtherData)
	}

	maxTS := int64(4500) // warmup + run
	counts := map[string]int{}
	flow := map[string]int{} // id -> 0 unseen, 1 started, 2 finished
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "s":
			if flow[e.ID] != 0 {
				t.Fatalf("duplicate flow start for %s", e.ID)
			}
			flow[e.ID] = 1
		case "t", "f":
			if flow[e.ID] != 1 {
				t.Fatalf("flow %q for %s in state %d", e.Ph, e.ID, flow[e.ID])
			}
			if e.Ph == "f" {
				flow[e.ID] = 2
			}
		}
		counts[e.Name]++
		if e.Ts < 0 || e.Ts > maxTS {
			t.Fatalf("event %s at ts %d outside [0, %d]", e.Name, e.Ts, maxTS)
		}
	}
	for _, name := range []string{"cs-setup", "cs-ack", "cs-teardown", "slot-steal", "cs-bypass", "inject", "eject", "lt"} {
		if counts[name] == 0 {
			t.Errorf("trace contains no %q events", name)
		}
	}
}

// TestTelemetryRestrictions: the attach preconditions fail loudly, and
// parallel executors are accepted (one recorder shard per worker).
func TestTelemetryRestrictions(t *testing.T) {
	sdm := DefaultConfig(4, 4)
	sdm.Mode = HybridSDM
	s := NewSynthetic(sdm, Tornado, 0.05)
	defer s.Close()
	if _, err := s.AttachTelemetry(TelemetryOptions{}); err == nil {
		t.Error("telemetry attached to an sdm simulator")
	}

	par := DefaultConfig(4, 4)
	par.Mode = HybridTDM
	par.Workers = 2
	p := NewSynthetic(par, Tornado, 0.05)
	defer p.Close()
	rec, err := p.AttachTelemetry(TelemetryOptions{})
	if err != nil {
		t.Fatalf("telemetry refused with Workers = 2: %v", err)
	}
	if rec.Shards() < 2 {
		t.Errorf("parallel recorder has %d shards, want >= 2", rec.Shards())
	}
	p.Warmup(100)
	p.Run(200)
	if rec.Events() == 0 {
		t.Error("parallel traced run recorded no events")
	}

	ok := DefaultConfig(4, 4)
	ok.Mode = HybridTDM
	q := NewSynthetic(ok, Tornado, 0.05)
	defer q.Close()
	if _, err := q.AttachTelemetry(TelemetryOptions{}); err != nil {
		t.Fatalf("first attach failed: %v", err)
	}
	if _, err := q.AttachTelemetry(TelemetryOptions{}); err == nil {
		t.Error("second attach accepted")
	}
}

// TestTracedSteadyStateAllocFree pins the enabled-path allocation
// guarantee end to end: with a recorder attached and the simulation in
// steady state, stepping the network performs zero heap allocations per
// window even as events stream into the ring — both in the drop-oldest
// regime (a small ring that wraps during the measurement) and under the
// sweep configuration (flows mask, 1-in-4 sampled timeline) with a ring
// sized for the whole run, which must then also never drop.
func TestTracedSteadyStateAllocFree(t *testing.T) {
	const warmup, runs, window = 2000, 20, 64
	// 128 events of ring per cycle is >1.4x the ~30-90 flows-profile
	// events/cycle the miniatures emit at steady state.
	const dropFreeRing = (warmup + (runs+1)*window) * 128 / 4
	for _, tc := range []struct {
		name     string
		opt      TelemetryOptions
		dropFree bool
	}{
		{"wrapping-ring", TelemetryOptions{Every: 64, RingCapacity: 1 << 12, MaxSamples: 64}, false},
		{"drop-free-ring", TelemetryOptions{Every: 64, RingCapacity: dropFreeRing, KindMask: obs.ProfileFlows, RingSample: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 4)
			cfg.Mode = HybridTDM
			cfg.Seed = 1
			s := NewSynthetic(cfg, Tornado, 0.15)
			defer s.Close()
			rec, err := s.AttachTelemetry(tc.opt)
			if err != nil {
				t.Fatalf("AttachTelemetry: %v", err)
			}
			s.Warmup(warmup)
			if a := testing.AllocsPerRun(runs, func() { s.net.Run(window) }); a != 0 {
				t.Errorf("traced steady-state window allocates %.1f per %d cycles, want 0", a, window)
			}
			sum := rec.Summary()
			if tc.dropFree && sum.RingDrops != 0 {
				t.Errorf("RingDrops = %d with a ring sized for the whole run, want 0", sum.RingDrops)
			}
			if !tc.dropFree && sum.RingDrops == 0 {
				t.Error("the small ring never wrapped: the drop-oldest regime was not exercised")
			}
		})
	}
}

// TestWriteTraceAllocatesPerPacket pins what the export costs in
// memory: it merges and formats the shard rings where they lie, so what
// it allocates follows the packets whose flows it stitches, not the
// events it writes. On the traced6x6 network with every ring wrapped,
// WriteTrace allocates at most an eighth of the ring bytes it exports
// (a merge that copied the events would allocate several times them).
func TestWriteTraceAllocatesPerPacket(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = HybridTDM
		cfg.PathSharing = true
		cfg.Workers = workers
		s := NewSynthetic(cfg, Tornado, 0.20)
		rec, err := s.AttachTelemetry(TelemetryOptions{RingCapacity: 1 << 18})
		if err != nil {
			s.Close()
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		wrapped := func() bool {
			for _, r := range rec.Rings() {
				if r.Dropped() == 0 {
					return false
				}
			}
			return true
		}
		for cycles := 0; !wrapped(); cycles += 500 {
			if cycles > 50000 {
				s.Close()
				t.Fatalf("Workers=%d: rings never wrapped", workers)
			}
			s.Run(500)
		}
		var live int
		for _, r := range rec.Rings() {
			live += r.Len()
		}
		ringBytes := uint64(live) * uint64(unsafe.Sizeof(obs.Event{}))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = s.WriteTrace(io.Discard)
		runtime.ReadMemStats(&m1)
		s.Close()
		if err != nil {
			t.Fatalf("Workers=%d: WriteTrace: %v", workers, err)
		}
		alloc := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("Workers=%d: WriteTrace allocated %d bytes for %d ring bytes", workers, alloc, ringBytes)
		if alloc > ringBytes/8 {
			t.Errorf("Workers=%d: WriteTrace allocated %d bytes, over 1/8 of the %d ring bytes it exports",
				workers, alloc, ringBytes)
		}
	}
}

// TestTelemetrySummaryDeterministic: two identical traced runs produce
// byte-identical summaries (the property campaign stores rely on).
func TestTelemetrySummaryDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig(4, 4)
		cfg.Mode = HybridTDM
		cfg.Seed = 7
		s := NewSynthetic(cfg, Tornado, 0.12)
		defer s.Close()
		rec, err := s.AttachTelemetry(TelemetryOptions{Every: 64})
		if err != nil {
			t.Fatalf("AttachTelemetry: %v", err)
		}
		s.Warmup(500)
		s.Run(2000)
		b, err := json.Marshal(rec.Summary())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("telemetry summaries differ between identical runs")
	}
}
