package hybrid_test

import (
	"fmt"
	"strings"
	"testing"

	"tdmnoc/internal/network"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// The tests in this file seed one fault per slot-table ownership check
// into a live checked network and require the invariant checker to
// report it with the right kind, router and cycle. They use only
// exported API plus the fault helpers of export_test.go, so they hold
// across any rewrite of the checks.

// checkedNet is a 6x6 Hybrid-TDM mesh checked every cycle, carrying
// transpose traffic with circuits for 300 clean cycles.
func checkedNet(t *testing.T) *network.Network {
	t.Helper()
	cfg := network.HybridTDMConfig(6, 6)
	cfg.CheckInvariants = true
	net := network.New(cfg, func(topology.NodeID) network.Endpoint {
		return traffic.NewSynthetic(traffic.Transpose, 0.1, cfg.PSDataFlits, true)
	})
	t.Cleanup(net.Close)
	net.Run(300)
	if n := net.InvariantCount(); n != 0 {
		t.Fatalf("%d violations before the fault; first: %s", n, net.InvariantViolations()[0])
	}
	if net.Router(14).Tables().ReservedEntries() == 0 {
		t.Fatal("router 14 holds no circuit: the fault would land on idle tables")
	}
	return net
}

// wantSlotTable runs the cycle after a seeded fault on router 14 and
// requires the first report to be a slot-table violation there at that
// cycle, with detail in its text.
func wantSlotTable(t *testing.T, net *network.Network, detail string) {
	t.Helper()
	net.Step()
	vs := net.InvariantViolations()
	if len(vs) == 0 {
		t.Fatal("fault went undetected")
	}
	if v := vs[0]; v.Kind != "slot-table" || v.Router != 14 || v.Cycle != int64(net.Now()) || !strings.Contains(v.Detail, detail) {
		t.Fatalf("first violation %s; want slot-table on router 14 at cycle %d, detail containing %q", v, net.Now(), detail)
	}
}

func TestSlotTableCatchesTwoOwners(t *testing.T) {
	net := checkedNet(t)
	s := net.Router(14).Tables().FaultTwoOwners()
	wantSlotTable(t, net, fmt.Sprintf("slot %d output E claimed by 2 inputs", s))
}

func TestSlotTableCatchesBrokenReservedCounter(t *testing.T) {
	net := checkedNet(t)
	net.Router(14).Tables().FaultReserved(topology.West)
	wantSlotTable(t, net, "input W reserved counter")
}

func TestSlotTableCatchesEntryBeyondActive(t *testing.T) {
	net := checkedNet(t)
	s := net.Router(14).Tables().FaultBeyondActive()
	wantSlotTable(t, net, fmt.Sprintf("input N slot %d valid beyond active region", s))
}
