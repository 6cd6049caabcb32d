package router_test

import (
	"strings"
	"testing"

	"tdmnoc/internal/network"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// TestMaskConsistencyCatchesStaleBit seeds a stale occupancy-mask bit
// into a live checked network and requires the invariant checker to
// report it with the right kind, router and cycle. It uses only exported
// API plus export_test.go, so it holds across any rewrite of the checks.
func TestMaskConsistencyCatchesStaleBit(t *testing.T) {
	cfg := network.HybridTDMConfig(6, 6)
	cfg.CheckInvariants = true
	net := network.New(cfg, func(topology.NodeID) network.Endpoint {
		return traffic.NewSynthetic(traffic.Transpose, 0.1, cfg.PSDataFlits, true)
	})
	defer net.Close()
	net.Run(300)
	if n := net.InvariantCount(); n != 0 {
		t.Fatalf("%d violations before the fault; first: %s", n, net.InvariantViolations()[0])
	}
	net.Router(14).FaultMaskBit()
	net.Step()
	vs := net.InvariantViolations()
	if len(vs) == 0 {
		t.Fatal("stale mask bit went undetected")
	}
	if v := vs[0]; v.Kind != "mask-consistency" || v.Router != 14 || v.Cycle != int64(net.Now()) || !strings.Contains(v.Detail, "VC states give") {
		t.Fatalf("first violation %s; want mask-consistency on router 14 at cycle %d", v, net.Now())
	}
}
