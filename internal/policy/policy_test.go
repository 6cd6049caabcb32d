package policy

import (
	"reflect"
	"slices"
	"testing"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/sdm"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec string
		name string
	}{
		{"static", "static"},
		{"threshold", "threshold"},
		{"threshold:128", "threshold"},
		{"greedy", "greedy"},
		{"greedy:8", "greedy"},
		{"sdm-gate", "sdm-gate"},
	} {
		p, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if p.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, p.Name(), tc.name)
		}
	}
	for _, bad := range []string{"", "nope", "greedy:", "greedy:0", "greedy:-3", "greedy:x", "static:4", "sdm-gate:2", "sdm-gate:6"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Parameters reach the policy.
	if g, _ := Parse("greedy:8"); g.(Greedy).TopK != 8 {
		t.Errorf("greedy:8 TopK = %d", g.(Greedy).TopK)
	}
	if th, _ := Parse("threshold:128"); th.(Threshold).MinPackets != 128 {
		t.Errorf("threshold:128 MinPackets = %d", th.(Threshold).MinPackets)
	}
}

func TestSelectTopKTotalOrder(t *testing.T) {
	a := []scoredFlow{{Src: 3, Dst: 1, Score: 10}, {Src: 1, Dst: 2, Score: 10}, {Src: 1, Dst: 0, Score: 10}, {Src: 0, Dst: 5, Score: 99}}
	b := []scoredFlow{{Src: 1, Dst: 0, Score: 10}, {Src: 0, Dst: 5, Score: 99}, {Src: 1, Dst: 2, Score: 10}, {Src: 3, Dst: 1, Score: 10}}
	ta, tb := selectTopK(a, 3), selectTopK(b, 3)
	if len(ta) != 3 || len(tb) != 3 {
		t.Fatalf("lens %d, %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("selection depends on input order: %v vs %v", ta, tb)
		}
	}
	if ta[0].Score != 99 {
		t.Errorf("highest score not first: %v", ta)
	}
	// Non-positive scores are dropped even within k.
	got := selectTopK([]scoredFlow{{Src: 0, Dst: 1, Score: 5}, {Src: 1, Dst: 2, Score: 0}, {Src: 2, Dst: 3, Score: -1}}, 3)
	if len(got) != 1 {
		t.Errorf("kept non-positive scores: %v", got)
	}
}

func TestEstimateSlotDemand(t *testing.T) {
	if d := EstimateSlotDemand(nil, 4, 4, 4); d != 0 {
		t.Errorf("empty demand = %d", d)
	}
	// One flow crossing one row: every traversed node sees 1 circuit,
	// demand = 1 * (block+1).
	if d := EstimateSlotDemand([]FlowPin{{Src: 0, Dst: 3}}, 4, 4, 4); d != 5 {
		t.Errorf("single-flow demand = %d, want 5", d)
	}
	// Two flows converging on the same node double the peak.
	pins := []FlowPin{{Src: 0, Dst: 3}, {Src: 8, Dst: 3}}
	if d := EstimateSlotDemand(pins, 4, 4, 4); d != 10 {
		t.Errorf("converging demand = %d, want 10", d)
	}
}

// syntheticProfile builds a tornado-like profile on a 4x4 mesh: every
// node sends to (node+2) mod 16 with heavy volume, plus a handful of
// sporadic light flows that the policies should leave packet-switched.
func syntheticProfile() *Profile {
	p := &Profile{Width: 4, Height: 4, Cycles: 10000, Injected: 3600, SlotCapacity: 128}
	for n := int32(0); n < 16; n++ {
		p.Flows = append(p.Flows, obs.FlowStat{Src: n, Dst: (n + 2) % 16, Packets: 200, Flits: 1000})
	}
	p.Flows = append(p.Flows,
		obs.FlowStat{Src: 0, Dst: 5, Packets: 3, Flits: 15},
		obs.FlowStat{Src: 7, Dst: 1, Packets: 2, Flits: 10},
		obs.FlowStat{Src: 4, Dst: 4, Packets: 50, Flits: 250}, // self flow: never pinnable
	)
	return p
}

func TestThresholdDecide(t *testing.T) {
	d := Threshold{}.Decide(syntheticProfile())
	if d.Policy != "threshold" || !d.RestrictSetups {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.PinnedFlows) != 16 {
		t.Fatalf("pinned %d flows, want the 16 heavy ones: %v", len(d.PinnedFlows), d.PinnedFlows)
	}
	for _, pin := range d.PinnedFlows {
		if pin.Src == pin.Dst {
			t.Fatalf("pinned a self flow: %v", pin)
		}
	}
	if d.SlotInit <= 0 || d.SlotInit > 128 {
		t.Errorf("slot_init %d outside (0, capacity]", d.SlotInit)
	}
	// Raising the threshold above the heavy flows' packet count empties
	// the pin set.
	if d := (Threshold{MinPackets: 1000}).Decide(syntheticProfile()); len(d.PinnedFlows) != 0 {
		t.Errorf("high threshold still pinned %v", d.PinnedFlows)
	}
}

func TestGreedyDemandBudget(t *testing.T) {
	p := syntheticProfile()
	d := Greedy{}.Decide(p)
	if d.Policy != "greedy" || !d.RestrictSetups {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.PinnedFlows) == 0 {
		t.Fatal("budget greedy pinned nothing")
	}
	// The admitted set must respect the quarter-capacity budget.
	budget := p.SlotCapacity / 4
	if got := EstimateSlotDemand(d.PinnedFlows, p.Width, p.Height, avgFlits(p)); got > budget {
		t.Errorf("admitted demand %d exceeds budget %d", got, budget)
	}
	// Deterministic: same profile, same decision.
	if d2 := (Greedy{}.Decide(syntheticProfile())); !slices.Equal(d.PinnedFlows, d2.PinnedFlows) || d.SlotInit != d2.SlotInit {
		t.Errorf("greedy not deterministic: %+v vs %+v", d, d2)
	}
	// Explicit TopK hard-caps regardless of budget.
	if d := (Greedy{TopK: 3}).Decide(syntheticProfile()); len(d.PinnedFlows) != 3 {
		t.Errorf("greedy:3 pinned %d flows", len(d.PinnedFlows))
	}
}

// TestGreedyWeighsByMeshHops checks greedy's flits × (hops+1) score
// against known 4x4 distances: 0->15 is 6 hops (weight 7), 0->3 is 3
// hops (weight 4), and a self flow is never ranked however heavy.
func TestGreedyWeighsByMeshHops(t *testing.T) {
	decide := func(diagFlits, rowFlits int64) []FlowPin {
		p := &Profile{Width: 4, Height: 4, SlotCapacity: 128, Flows: []obs.FlowStat{
			{Src: 0, Dst: 15, Packets: 1, Flits: diagFlits},
			{Src: 0, Dst: 3, Packets: 1, Flits: rowFlits},
			{Src: 5, Dst: 5, Packets: 1, Flits: 1000},
		}}
		return Greedy{TopK: 1}.Decide(p).PinnedFlows
	}
	diag, row := []FlowPin{{Src: 0, Dst: 15}}, []FlowPin{{Src: 0, Dst: 3}}
	// 4*7 = 28 beats 6*4 = 24.
	if got := decide(4, 6); !slices.Equal(got, diag) {
		t.Errorf("flits 4 vs 6: pinned %v, want %v", got, diag)
	}
	// 4*7 = 28 loses to 8*4 = 32.
	if got := decide(4, 8); !slices.Equal(got, row) {
		t.Errorf("flits 4 vs 8: pinned %v, want %v", got, row)
	}
}

// TestDecisionPinsSorted pins the canonical pin order: whatever order
// the ranking admits flows in, a decision lists its pins by (Src, Dst),
// so equal pin sets give byte-equal re-run configs and job keys.
func TestDecisionPinsSorted(t *testing.T) {
	p := syntheticProfile()
	// Reverse the flow table and make later flows heavier, so rank
	// order and (Src, Dst) order disagree.
	slices.Reverse(p.Flows)
	for i := range p.Flows {
		p.Flows[i].Flits += int64(i)
	}
	for _, pol := range []Policy{Threshold{}, Greedy{}, Greedy{TopK: 5}} {
		pins := pol.Decide(p).PinnedFlows
		if len(pins) == 0 {
			t.Fatalf("%s pinned nothing", pol.Name())
		}
		if !slices.IsSortedFunc(pins, func(a, b FlowPin) int {
			if a.Src != b.Src {
				return a.Src - b.Src
			}
			return a.Dst - b.Dst
		}) {
			t.Errorf("%s pins not sorted by (Src, Dst): %v", pol.Name(), pins)
		}
	}
}

// TestSDMGatePlanesMatchSDM: SDMGate gates out of the planes the SDM
// re-run has, so at every load its decision must build an SDM network
// with the two planes that engine needs.
func TestSDMGatePlanesMatchSDM(t *testing.T) {
	for _, scale := range []int64{1, 3, 100} { // light, medium, saturated load
		p := syntheticProfile()
		for i := range p.Flows {
			p.Flows[i].Flits *= scale
		}
		cfg := sdm.DefaultConfig(p.Width, p.Height)
		cfg.GatedPlanes = SDMGate{}.Decide(p).GatedPlanes
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("load x%d: %d gated planes rejected by the SDM engine: %v", scale, cfg.GatedPlanes, r)
				}
			}()
			sdm.New(cfg, nil)
		}()
	}
}

func TestSDMGateDecide(t *testing.T) {
	// syntheticProfile offers 18000+ flits over 10000 cycles * 16 nodes
	// ≈ 0.11 flits/node/cycle — a light load that gates down to 2 planes.
	d := SDMGate{}.Decide(syntheticProfile())
	if !d.UseSDM || d.Policy != "sdm-gate" {
		t.Fatalf("decision = %+v", d)
	}
	if d.GatedPlanes != 2 {
		t.Errorf("light load gated %d of 4 planes, want 2", d.GatedPlanes)
	}
	// A saturated profile gates nothing.
	hot := syntheticProfile()
	for i := range hot.Flows {
		hot.Flows[i].Flits *= 100
	}
	if d := (SDMGate{}).Decide(hot); d.GatedPlanes != 0 {
		t.Errorf("saturated load gated %d planes", d.GatedPlanes)
	}
}

func TestStaticDecideIsZero(t *testing.T) {
	d := Static{}.Decide(syntheticProfile())
	if !reflect.DeepEqual(d, Decision{Policy: "static"}) {
		t.Errorf("static decision changes config: %+v", d)
	}
}

func TestSlotInitFor(t *testing.T) {
	for _, tc := range []struct{ demand, cap, want int }{
		{0, 128, 0}, {1, 128, 8}, {8, 128, 8}, {9, 128, 16}, {90, 128, 128}, {500, 128, 128},
	} {
		if got := slotInitFor(tc.demand, tc.cap); got != tc.want {
			t.Errorf("slotInitFor(%d, %d) = %d, want %d", tc.demand, tc.cap, got, tc.want)
		}
	}
}
