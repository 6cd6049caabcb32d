package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// FlowPin names one (src, dst) flow that a Decision pins to circuit
// switching: the source NI sets its circuit up eagerly (first send,
// no frequency threshold) and, under RestrictSetups, no other flow is
// allowed to claim slot-table space.
type FlowPin struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Decision is a policy's output: the concrete configuration deltas to
// apply to a re-run. Everything is expressed as plain config fields so
// the re-run's digest is a pure function of (base config, Decision) —
// the reproducibility contract the offline loop pins by test. The zero
// Decision (modulo Policy name) means "run the baseline unchanged".
type Decision struct {
	// Policy names the policy that produced this decision.
	Policy string `json:"policy"`
	// PinnedFlows are circuit-pinned flows, sorted by (Src, Dst).
	PinnedFlows []FlowPin `json:"pinned_flows,omitempty"`
	// RestrictSetups forbids circuit setups for non-pinned flows, which
	// keeps the active slot-table region small (short TDM frame: higher
	// circuit bandwidth, less slot leakage) and eliminates setup/
	// teardown config traffic for flows the profile says won't keep a
	// circuit busy.
	RestrictSetups bool `json:"restrict_setups,omitempty"`
	// SlotInit, when > 0, overrides the dynamic resizer's initial
	// active slot-table region. Profiles of the pinned flow set let a
	// policy start the table at its converged size (no mid-measurement
	// freeze→drain→reset churn) or deliberately smaller than the
	// unrestricted run would reach.
	SlotInit int `json:"slot_init,omitempty"`
	// UseSDM re-runs under space-division multiplexing with GatedPlanes
	// of the link planes power-gated (utilization-driven plane gating).
	UseSDM      bool `json:"use_sdm,omitempty"`
	GatedPlanes int  `json:"gated_planes,omitempty"`
}

// Policy maps a Profile to a Decision. Implementations must be pure
// and deterministic: same profile, same decision.
type Policy interface {
	Name() string
	Decide(p *Profile) Decision
}

// scoredFlow is a flow with a policy-assigned weight, the unit of
// greedy's deterministic ranking.
type scoredFlow struct {
	Src, Dst int32
	Score    int64
}

// selectTopK sorts flows by (Score desc, Src asc, Dst asc) — a total
// order, so ties never depend on input order — and returns the first k
// with a positive score. The input slice is sorted in place.
func selectTopK(flows []scoredFlow, k int) []scoredFlow {
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Score != flows[j].Score {
			return flows[i].Score > flows[j].Score
		}
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	if k > len(flows) {
		k = len(flows)
	}
	out := flows[:0:0]
	for _, f := range flows[:k] {
		if f.Score <= 0 {
			break
		}
		out = append(out, f)
	}
	return out
}

// sortPins orders pins by (Src, Dst) — the canonical order the Decision
// JSON encoding uses, so equal pin sets give equal re-run configs (and
// job keys).
func sortPins(pins []FlowPin) {
	sort.Slice(pins, func(i, j int) bool {
		if pins[i].Src != pins[j].Src {
			return pins[i].Src < pins[j].Src
		}
		return pins[i].Dst < pins[j].Dst
	})
}

// EstimateSlotDemand walks each pinned flow's XY route and returns the
// worst-case slot demand at any single router: the maximum number of
// pinned circuits crossing one node, times one reservation block of
// blockFlits+1 slots. This deliberately over-approximates (it counts
// per node, not per input port), so a slot table initialized to the
// estimate leaves the resizer's doubling path as a safety valve rather
// than the common case.
func EstimateSlotDemand(pins []FlowPin, width, height, blockFlits int) int {
	if len(pins) == 0 || width <= 0 || height <= 0 {
		return 0
	}
	if blockFlits < 1 {
		blockFlits = 1
	}
	load := make([]int, width*height)
	for _, p := range pins {
		sx, sy := p.Src%width, p.Src/width
		dx, dy := p.Dst%width, p.Dst/width
		x, y := sx, sy
		for x != dx {
			if dx > x {
				x++
			} else {
				x--
			}
			load[y*width+x]++
		}
		for y != dy {
			if dy > y {
				y++
			} else {
				y--
			}
			load[y*width+x]++
		}
	}
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max * (blockFlits + 1)
}

// slotInitFor turns a demand estimate into a resizer starting size:
// the next power of two at or above demand, clamped to [8, capacity].
func slotInitFor(demand, capacity int) int {
	if demand <= 0 || capacity <= 0 {
		return 0
	}
	init := 8
	for init < demand && init < capacity {
		init <<= 1
	}
	if init > capacity {
		init = capacity
	}
	return init
}

// avgFlits returns the profile's mean packet length in flits.
func avgFlits(p *Profile) int {
	if p.Injected <= 0 {
		return 1
	}
	var flits int64
	for _, f := range p.Flows {
		flits += f.Flits
	}
	n := int(flits / p.Injected)
	if n < 1 {
		n = 1
	}
	return n
}

// Static is the identity policy: re-run the baseline unchanged. Its
// job in the offline loop is to anchor the energy/latency deltas (and,
// because its re-run config hashes identically to the profiled run, to
// come back as a store cache hit).
type Static struct{}

func (Static) Name() string             { return "static" }
func (Static) Decide(*Profile) Decision { return Decision{Policy: "static"} }

// Threshold pins every flow that injected at least MinPackets packets
// over the profiled run, restricts setups to those pins, and sizes the
// initial slot table to the pinned demand. The paper's simplest
// profiled-hybrid strategy: persistent flows get circuits, sporadic
// ones stay packet-switched.
type Threshold struct {
	// MinPackets is the pin threshold (default 64).
	MinPackets int64
}

func (Threshold) Name() string { return "threshold" }

func (t Threshold) Decide(p *Profile) Decision {
	min := t.MinPackets
	if min <= 0 {
		min = 64
	}
	var pins []FlowPin
	for _, f := range p.Flows {
		if f.Src != f.Dst && f.Packets >= min {
			pins = append(pins, FlowPin{Src: int(f.Src), Dst: int(f.Dst)})
		}
	}
	sortPins(pins)
	d := Decision{Policy: "threshold", PinnedFlows: pins, RestrictSetups: true}
	demand := EstimateSlotDemand(pins, p.Width, p.Height, avgFlits(p))
	d.SlotInit = slotInitFor(demand, p.SlotCapacity)
	return d
}

// Greedy ranks flows by flits × (hops + 1) — the bytes × distance
// product that approximates each flow's share of total link energy —
// and pins them in rank order until the estimated slot demand exhausts
// a quarter of the slot-table capacity (or until TopK flows, when set).
// Setups are restricted to the pins and the slot table starts at the
// pinned demand. The demand budget, not a fixed count, is what lets
// greedy cover a whole permutation pattern when it is cheap (every
// tornado flow pinned) yet back off to the heaviest flows when pinning
// everything would blow up the TDM frame.
type Greedy struct {
	// TopK caps the number of pinned flows; <= 0 lets the slot-demand
	// budget decide.
	TopK int
}

func (Greedy) Name() string { return "greedy" }

func (g Greedy) Decide(p *Profile) Decision {
	mesh := topology.Mesh{Width: p.Width, Height: p.Height}
	scored := make([]scoredFlow, 0, len(p.Flows))
	for _, f := range p.Flows {
		if f.Src == f.Dst {
			continue
		}
		hops := int64(mesh.HopDistance(topology.NodeID(f.Src), topology.NodeID(f.Dst)))
		scored = append(scored, scoredFlow{Src: f.Src, Dst: f.Dst, Score: f.Flits * (hops + 1)})
	}
	ranked := selectTopK(scored, len(scored))
	if g.TopK > 0 && len(ranked) > g.TopK {
		ranked = ranked[:g.TopK]
	}
	block := avgFlits(p)
	budget := p.SlotCapacity / 4
	if budget < 8 {
		budget = 8
	}
	// Admit flows in rank order while the worst-case single-node demand
	// stays within budget; a flow that would overflow it is skipped but
	// later (lighter, possibly disjoint-path) flows still get a chance.
	var pins []FlowPin
	for _, f := range ranked {
		pin := FlowPin{Src: int(f.Src), Dst: int(f.Dst)}
		if g.TopK <= 0 && EstimateSlotDemand(append(pins, pin), p.Width, p.Height, block) > budget {
			continue
		}
		pins = append(pins, pin)
	}
	sortPins(pins)
	d := Decision{Policy: "greedy", PinnedFlows: pins, RestrictSetups: true}
	demand := EstimateSlotDemand(pins, p.Width, p.Height, block)
	d.SlotInit = slotInitFor(demand, p.SlotCapacity)
	return d
}

// SDMGate re-runs the workload under space-division multiplexing with
// link planes power-gated according to the profiled utilization: a
// workload whose traffic would keep only a sliver of the SDM planes
// busy pays their static link leakage for nothing. It gates out of
// the planes the re-run has, tablei.SDMPlanes; at least two always
// stay on (one packet plane plus one circuit plane).
type SDMGate struct{}

func (SDMGate) Name() string { return "sdm-gate" }

func (SDMGate) Decide(p *Profile) Decision {
	// Offered load per node per cycle, in flits: the fraction of link
	// capacity the workload can possibly use. One ungated plane serves
	// roughly one flit per link per cycle, so gate planes the offered
	// load cannot fill, keeping >= 2.
	var load float64
	if p.Cycles > 0 && p.Nodes() > 0 {
		var flits int64
		for _, f := range p.Flows {
			flits += f.Flits
		}
		load = float64(flits) / (float64(p.Cycles) * float64(p.Nodes()))
	}
	gated := 0
	switch {
	case load < 0.25:
		gated = tablei.SDMPlanes - 2
	case load < 0.5:
		gated = tablei.SDMPlanes - 3
	}
	return Decision{Policy: "sdm-gate", UseSDM: true, GatedPlanes: gated}
}

// Names lists the parseable policy names.
func Names() []string { return []string{"static", "threshold", "greedy", "sdm-gate"} }

// Parse resolves a policy spec string: a name from Names, optionally
// with a colon-separated integer parameter ("greedy:8" pins the top 8
// flows, "threshold:128" raises the pin threshold); static and sdm-gate
// take none.
func Parse(spec string) (Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("policy: bad parameter %q in %q", arg, spec)
		}
		n = v
	}
	if n != 0 && (name == "static" || name == "sdm-gate") {
		return nil, fmt.Errorf("policy: %q takes no parameter", name)
	}
	switch name {
	case "static":
		return Static{}, nil
	case "threshold":
		return Threshold{MinPackets: int64(n)}, nil
	case "greedy":
		return Greedy{TopK: n}, nil
	case "sdm-gate":
		return SDMGate{}, nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
	}
}
