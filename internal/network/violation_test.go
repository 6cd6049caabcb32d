package network_test

import (
	"strings"
	"testing"

	"tdmnoc/internal/network"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// The tests in this file seed one fault per NI-side check and require
// the invariant checker to report it with the right kind, router and
// cycle. They use only exported API plus the fault helpers of
// export_test.go, so they hold across any rewrite of the checks.

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
	return net
}

// wantViolation runs the cycle after a seeded fault and requires the
// first report to be of kind on router (-1: network-wide) at that cycle,
// with detail in its text.
func wantViolation(t *testing.T, net *network.Network, kind string, router int, detail string) {
	t.Helper()
	net.Step()
	vs := net.InvariantViolations()
	if len(vs) == 0 {
		t.Fatalf("fault went undetected (want %s on router %d)", kind, router)
	}
	v := vs[0]
	if v.Kind != kind || v.Router != router || v.Cycle != int64(net.Now()) || !strings.Contains(v.Detail, detail) {
		t.Fatalf("first violation %s; want kind %s, router %d, cycle %d, detail containing %q",
			v, kind, router, net.Now(), detail)
	}
}

func TestConservationCatchesLostPacket(t *testing.T) {
	net := checkedNet(t)
	ni := net.NI(7)
	ni.Send(net.Now(), 28, network.SendOptions{Slack: -1})
	ni.FaultLosePacket()
	wantViolation(t, net, "conservation", -1, "distinct data packets in flight")
}

func TestConservationCatchesDuplicatedPacket(t *testing.T) {
	net := checkedNet(t)
	ni := net.NI(7)
	ni.Send(net.Now(), 28, network.SendOptions{Slack: -1})
	ni.FaultDuplicatePacket()
	wantViolation(t, net, "conservation", -1, "distinct data packets in flight")
}

func TestLocalCreditCatchesDroppedInjectionCredit(t *testing.T) {
	net := checkedNet(t)
	net.NI(7).FaultDropCredit(1)
	wantViolation(t, net, "credit", 7, "local vc 1: NI credits")
}
