package hsnoc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// flowStatsRun executes the 32x32 hybrid-TDM tornado workload with flow
// tracking and returns the merged per-flow aggregates as stable JSON
// bytes.
func flowStatsRun(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := DefaultConfig(32, 32)
	cfg.Mode = HybridTDM
	cfg.PathSharing = true
	cfg.Seed = 7
	cfg.Workers = workers
	s := NewSynthetic(cfg, Tornado, 0.20)
	defer s.Close()
	rec, err := s.AttachTelemetry(TelemetryOptions{Every: 64, RingCapacity: 1 << 16, TrackFlows: true})
	if err != nil {
		t.Fatalf("AttachTelemetry(workers=%d): %v", workers, err)
	}
	s.Warmup(200)
	s.Run(400)
	b, err := json.Marshal(rec.FlowStats())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlowStatsWorkerInvariantLargeMesh pins sharded flow tracking at
// the large-mesh smoke size: the merged FlowStats must be byte-identical
// across worker counts. The per-shard aggregation follows tile
// ownership — which the worker count reshapes — so this is the
// telemetry-side counterpart of the state-digest layout matrix in
// internal/network.
func TestFlowStatsWorkerInvariantLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 runs too long for -short")
	}
	serial := flowStatsRun(t, 1)
	if len(serial) <= len("[]") {
		t.Fatal("serial run tracked no flows; the invariance comparison would be vacuous")
	}
	for _, workers := range []int{8, 16} {
		if b := flowStatsRun(t, workers); !bytes.Equal(serial, b) {
			t.Errorf("FlowStats differ between Workers=1 (%d bytes) and Workers=%d (%d bytes)",
				len(serial), workers, len(b))
		}
	}
}
