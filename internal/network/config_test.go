package network

import (
	"fmt"
	"strings"
	"testing"

	"tdmnoc/internal/policy"
	"tdmnoc/internal/router"
)

// sharingConfig is the Hybrid-TDM network with path sharing on (the
// "hop" configurations of Fig. 8).
func sharingConfig(width, height int) Config {
	c := HybridTDMConfig(width, height)
	c.PathSharing = true
	return c
}

// gatedConfig is c with VC power gating on (the "VCt" configurations).
func gatedConfig(c Config) Config {
	c.VCPowerGating = true
	return c
}

// knobs names one public switch or size per row, set on a 3x2
// DefaultConfig of each mode.
var knobs = map[string]func(*Params){
	"base":             func(*Params) {},
	"no-stealing":      func(c *Params) { c.DisableTimeSlotStealing = true },
	"sharing":          func(c *Params) { c.PathSharing = true },
	"vcgating":         func(c *Params) { c.VCPowerGating = true },
	"latency-gating":   func(c *Params) { c.LatencyBasedVCGating = true },
	"static-slots":     func(c *Params) { c.DisableDynamicSlotSizing = true },
	"slots-0":          func(c *Params) { c.SlotTableEntries = 0 },
	"slots-256":        func(c *Params) { c.SlotTableEntries = 256 },
	"static-slots-256": func(c *Params) { c.DisableDynamicSlotSizing = true; c.SlotTableEntries = 256 },
	"vcs-0":            func(c *Params) { c.VCs = 0 },
	"vcs-2":            func(c *Params) { c.VCs = 2 },
	"sa-0":             func(c *Params) { c.SAIterations = 0 },
	"sa-2":             func(c *Params) { c.SAIterations = 2 },
	"slot-init":        func(c *Params) { c.SlotInit = 40 },
	"slot-init-256":    func(c *Params) { c.SlotInit = 200; c.SlotTableEntries = 256 },
	"slot-init-static": func(c *Params) { c.SlotInit = 40; c.DisableDynamicSlotSizing = true },
	"pins":             func(c *Params) { c.PinnedFlows = []policy.FlowPin{{Src: 0, Dst: 5}}; c.RestrictSetups = true },
	"everything": func(c *Params) {
		c.DisableTimeSlotStealing, c.PathSharing, c.LatencyBasedVCGating = true, true, true
		c.SlotTableEntries, c.VCs, c.SAIterations, c.SlotInit = 256, 2, 2, 64
	},
}

// TestEveryKnobReachesTheEngine pins, for each mode and public knob, the
// router configuration every router reports, the active slot region and
// the slot-table resizer's kind. The expected rows are what the engine
// built when a separate lowering translated the public configuration
// into an engine configuration of its own; rows whose configuration
// Validate refuses are absent (TestNewRefusesInvalidParams).
func TestEveryKnobReachesTheEngine(t *testing.T) {
	want := []struct {
		mode   Mode
		knob   string
		router router.Config
		active int
		kind   string
	}{
		{PacketSwitched, "base", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "no-stealing", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "vcgating", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: true, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "latency-gating", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: true, LatencyVCGating: true, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "static-slots", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "slots-0", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "slots-256", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "static-slots-256", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "vcs-0", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "vcs-2", router.Config{VCs: 2, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "sa-0", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{PacketSwitched, "sa-2", router.Config{VCs: 4, Hybrid: false, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 2}, 128, "fixed"},
		{HybridTDM, "base", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "no-stealing", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: false, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "sharing", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: true, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "vcgating", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: true, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "latency-gating", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: true, LatencyVCGating: true, SAIterations: 0}, 16, "default"},
		{HybridTDM, "static-slots", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{HybridTDM, "slots-0", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "slots-256", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 256, SlotActive: 32, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 32, "default"},
		{HybridTDM, "static-slots-256", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 256, SlotActive: 256, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 256, "fixed"},
		{HybridTDM, "vcs-0", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "vcs-2", router.Config{VCs: 2, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "sa-0", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "sa-2", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 2}, 16, "default"},
		{HybridTDM, "slot-init", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 40, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 40, "initial"},
		{HybridTDM, "slot-init-256", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 256, SlotActive: 200, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 200, "initial"},
		{HybridTDM, "slot-init-static", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 128, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 128, "fixed"},
		{HybridTDM, "pins", router.Config{VCs: 4, Hybrid: true, SlotCapacity: 128, SlotActive: 16, TimeSlotStealing: true, Sharing: false, VCGating: false, LatencyVCGating: false, SAIterations: 0}, 16, "default"},
		{HybridTDM, "everything", router.Config{VCs: 2, Hybrid: true, SlotCapacity: 256, SlotActive: 64, TimeSlotStealing: false, Sharing: true, VCGating: true, LatencyVCGating: true, SAIterations: 2}, 64, "initial"},
	}
	seen := map[[2]string]bool{}
	for _, w := range want {
		seen[[2]string{w.mode.String(), w.knob}] = true
		cfg := DefaultConfig(3, 2)
		cfg.Mode = w.mode
		knobs[w.knob](&cfg.Params)
		n := New(cfg, nil)
		for id := range n.Mesh().Nodes() {
			if got := n.routers[id].Config(); got != w.router {
				t.Errorf("%v %s: router %d has %+v, want %+v", w.mode, w.knob, id, got, w.router)
			}
		}
		if got := n.ActiveSlots(); got != w.active {
			t.Errorf("%v %s: ActiveSlots %d, want %d", w.mode, w.knob, got, w.active)
		}
		kind := "fixed"
		if n.dynamicSlots {
			kind = "default"
			if cfg.SlotInit > 0 {
				kind = "initial"
			}
		}
		if kind != w.kind {
			t.Errorf("%v %s: %s resizer, want %s", w.mode, w.knob, kind, w.kind)
		}
		if pinned := n.nis[0].pins[5]; pinned != (w.knob == "pins") {
			t.Errorf("%v %s: flow 0->5 pinned %v", w.mode, w.knob, pinned)
		}
		n.Close()
	}
	// Every knob the table lacks for a mode is one Validate refuses.
	for _, mode := range []Mode{PacketSwitched, HybridTDM} {
		for knob, set := range knobs {
			if seen[[2]string{mode.String(), knob}] {
				continue
			}
			cfg := DefaultConfig(3, 2)
			cfg.Mode = mode
			set(&cfg.Params)
			if cfg.Validate() == nil {
				t.Errorf("%v %s: valid, but has no expected row", mode, knob)
			}
		}
	}
}

// TestNewRefusesInvalidParams: New panics with Validate's error, so a
// knob the chosen mode cannot honour is refused, not dropped.
func TestNewRefusesInvalidParams(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"sharing on packet", func(c *Config) { c.PathSharing = true }, "hsnoc: PathSharing requires HybridTDM"},
		{"slot init on packet", func(c *Config) { c.SlotInit = 8 }, "hsnoc: SlotInit requires HybridTDM"},
		{"pins on packet", func(c *Config) { c.RestrictSetups = true }, "hsnoc: flow pinning requires HybridTDM"},
		{"slot init over capacity", func(c *Config) { c.Mode, c.SlotInit = HybridTDM, 129 }, "exceeds the 128-entry slot table"},
		{"pin outside mesh", func(c *Config) { c.Mode, c.PinnedFlows = HybridTDM, []policy.FlowPin{{Src: 0, Dst: 6}} }, "outside the 3x2 mesh"},
		{"empty mesh", func(c *Config) { c.Width = 0 }, "hsnoc: mesh 0x2 invalid"},
		{"sdm", func(c *Config) { c.Mode = HybridSDM }, "network: HybridSDM runs on internal/sdm"},
	} {
		cfg := DefaultConfig(3, 2)
		tc.set(&cfg)
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Errorf("%s: New panicked with %q, want %q", tc.name, got, tc.want)
				}
			}()
			New(cfg, nil).Close()
		}()
	}
}
