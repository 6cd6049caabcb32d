package network

import (
	"testing"

	"tdmnoc/internal/topology"
)

// layoutRun drives one seeded hybrid-TDM+sharing run under an explicit
// worker count, returning the end-of-run full-state digest and
// in-flight count. Invariants are checked on a coarse cadence — the
// point here is layout equivalence, not the every-cycle checker (which
// has its own tests on small meshes).
func layoutRun(t *testing.T, w, h, workers, cycles int) (uint64, int64) {
	t.Helper()
	cfg := HybridTDMConfig(w, h).WithSharing()
	cfg.Workers = workers
	cfg.CheckInvariants = true
	cfg.CheckInterval = 128
	net := New(cfg, func(id topology.NodeID) Endpoint {
		return &burst{count: 80, dstOf: reversePattern, allowCS: true, period: 5}
	})
	defer net.Close()
	net.Run(cycles)
	if n := net.InvariantCount(); n != 0 {
		t.Fatalf("%dx%d workers=%d: %d invariant violations; first: %s",
			w, h, workers, n, net.InvariantViolations()[0])
	}
	return net.StateDigest(), net.InFlight()
}

// TestLayoutDigestWorkerMatrix pins the slab-layout contract at scale:
// the full-state digest is bit-identical across worker counts
// {1, 2, 8, 16} on both a ragged 10x6 mesh (the 2D block grid cannot
// tile it evenly at most worker counts) and a 32x32 mesh. Per-worker
// slab boundaries move with the worker count, so any construction-order
// or carving bug that leaks layout into simulation state fails here.
func TestLayoutDigestWorkerMatrix(t *testing.T) {
	cases := []struct {
		w, h, cycles int
	}{
		{10, 6, 900},
		{32, 32, 600},
	}
	for _, tc := range cases {
		serialDigest, serialInFlight := layoutRun(t, tc.w, tc.h, 1, tc.cycles)
		for _, workers := range []int{2, 8, 16} {
			d, inf := layoutRun(t, tc.w, tc.h, workers, tc.cycles)
			if d != serialDigest || inf != serialInFlight {
				t.Errorf("%dx%d: workers=%d digest %016x (in-flight %d) != serial %016x (%d)",
					tc.w, tc.h, workers, d, inf, serialDigest, serialInFlight)
			}
		}
	}
}
