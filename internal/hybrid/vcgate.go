package hybrid

import "tdmnoc/internal/obs"

// The VC-gating policies' fixed tuning: two VCs per port always stay on
// so a lone VC cannot serialise request and reply classes under bursty
// traffic, and one adjustment step adds or removes one VC. The caller
// steps a gate once per epoch (the router's gateEpoch).
const (
	minVCs  = 2
	setSize = 1

	// VCGate's utilisation band.
	thresholdHigh = 0.60
	thresholdLow  = 0.25

	// LatencyVCGate's band: above highFactor*targetDelay cycles of mean
	// buffer residency a VC set is activated, below lowFactor*targetDelay
	// one is gated off.
	targetDelay = 4
	highFactor  = 1.5
	lowFactor   = 0.5
)

// VCGate implements the aggressive VC power gating policy of
// Section III-B: the number of active virtual channels is periodically
// adjusted by comparing measured VC utilisation against two thresholds.
// If utilisation exceeds thresholdHigh one set of VCs is activated; below
// thresholdLow one set is turned off (after evacuation, which the router
// enforces by draining the victim VC before the gate takes effect).
type VCGate struct {
	maxVCs    int
	active    int
	busyAccum int64
	obsCycles int64
}

// DefaultVCGate returns the policy used by the VCt configurations:
// minVCs–maxVCs VCs per port adjusted one VC at a time, with a 60 % /
// 25 % threshold band.
func DefaultVCGate(maxVCs int) *VCGate {
	return &VCGate{maxVCs: maxVCs, active: maxVCs}
}

// Active returns the currently active VC count per port.
func (g *VCGate) Active() int { return g.active }

// Observe accumulates one cycle's utilisation sample: busy is the number
// of active VCs currently holding flits, out of the active population.
func (g *VCGate) Observe(busy int) {
	g.busyAccum += int64(busy)
	g.obsCycles++
}

// Step evaluates the policy at an epoch boundary. It returns the new
// active VC count and whether it changed. Callers invoke it once per
// epoch; calling it with no observations is a no-op.
func (g *VCGate) Step() (active int, changed bool) {
	if g.obsCycles == 0 {
		return g.active, false
	}
	mu := float64(g.busyAccum) / (float64(g.obsCycles) * float64(g.active))
	g.busyAccum, g.obsCycles = 0, 0
	switch {
	case mu > thresholdHigh && g.active < g.maxVCs:
		g.active = min(g.active+setSize, g.maxVCs)
		return g.active, true
	case mu < thresholdLow && g.active > minVCs:
		g.active = max(g.active-setSize, minVCs)
		return g.active, true
	}
	return g.active, false
}

// LatencyVCGate is the refinement the paper suggests in Section V-B4:
// "activating and deactivating VCs based on more accurate metrics, for
// example, packet latency, will ensure better performance". Instead of
// VC utilisation it observes how long flits wait in the router's buffers
// (the router-local component of packet latency) and keeps that delay
// inside a target band.
type LatencyVCGate struct {
	maxVCs   int
	active   int
	delaySum int64
	delayN   int64
}

// DefaultLatencyVCGate targets a mean buffer residency of targetDelay
// (4) cycles.
func DefaultLatencyVCGate(maxVCs int) *LatencyVCGate {
	return &LatencyVCGate{maxVCs: maxVCs, active: maxVCs}
}

// Active returns the current active VC count.
func (g *LatencyVCGate) Active() int { return g.active }

// ObserveDelay records one flit's buffer residency in cycles.
func (g *LatencyVCGate) ObserveDelay(cycles int64) {
	g.delaySum += cycles
	g.delayN++
}

// Step evaluates the policy at an epoch boundary.
func (g *LatencyVCGate) Step() (active int, changed bool) {
	if g.delayN == 0 {
		// No traffic at all: gate down toward the minimum.
		if g.active > minVCs {
			g.active = max(g.active-setSize, minVCs)
			return g.active, true
		}
		return g.active, false
	}
	mean := float64(g.delaySum) / float64(g.delayN)
	g.delaySum, g.delayN = 0, 0
	switch {
	case mean > targetDelay*highFactor && g.active < g.maxVCs:
		g.active = min(g.active+setSize, g.maxVCs)
		return g.active, true
	case mean < targetDelay*lowFactor && g.active > minVCs:
		g.active = max(g.active-setSize, minVCs)
		return g.active, true
	}
	return g.active, false
}

// failThreshold is the number of consecutive setup failures (observed
// network-wide at sources) that doubles a Resizer's active region.
const failThreshold = 16

// Resizer implements the dynamic slot-table sizing policy of Section II-C:
// start with a small active region, and when path allocation continuously
// fails, double the active size (up to capacity), at which point every
// slot table in the network is reset and path setup restarts.
type Resizer struct {
	capacity     int // the physical slot-table size
	active       int
	consecFails  int
	resizeEvents int

	// probe, when non-nil, receives a KindSlotResize event on every
	// doubling (Node = -1: the policy is network-wide). The resizer runs
	// between cycles on the caller goroutine, so it gets the recorder's
	// control handle.
	probe *obs.Handle
}

// SetProbe installs (or, with nil, removes) the resizer's observability
// handle.
func (r *Resizer) SetProbe(p *obs.Handle) { r.probe = p }

// DefaultResizer starts at capacity/8 (at least 8 slots) and doubles after
// failThreshold consecutive failures.
func DefaultResizer(capacity int) *Resizer {
	init := capacity / 8
	if init < 8 {
		init = min(8, capacity)
	}
	return &Resizer{capacity: capacity, active: init}
}

// ResizerWithInitial is DefaultResizer with a policy-chosen starting
// region: a profiled run lets the next run begin at (or deliberately
// below) the converged size instead of discovering it by doubling. The
// initial size is clamped to [1, capacity]; the doubling path stays
// armed as the safety valve for a misestimated profile.
func ResizerWithInitial(capacity, initial int) *Resizer {
	if initial < 1 {
		initial = 1
	}
	if initial > capacity {
		initial = capacity
	}
	return &Resizer{capacity: capacity, active: initial}
}

// FixedResizer pins the active size to the full capacity, disabling
// dynamic sizing (the ablation baseline): a region already at capacity
// never doubles.
func FixedResizer(capacity int) *Resizer {
	return &Resizer{capacity: capacity, active: capacity}
}

// Active returns the current network-wide active slot count.
func (r *Resizer) Active() int { return r.active }

// ResizeEvents returns how many doublings have occurred.
func (r *Resizer) ResizeEvents() int { return r.resizeEvents }

// RecordSetupResultAt feeds one setup outcome, at cycle now, into the
// policy. It returns (newActive, true) when the active size just
// doubled; the caller must then reset every slot table, DLT and
// connection registry in the network. An attached probe timestamps the
// resize event with now.
func (r *Resizer) RecordSetupResultAt(ok bool, now int64) (int, bool) {
	if ok {
		r.consecFails = 0
		return r.active, false
	}
	r.consecFails++
	if r.consecFails >= failThreshold && r.active < r.capacity {
		r.active = min(r.active*2, r.capacity)
		r.consecFails = 0
		r.resizeEvents++
		if r.probe.Wants(obs.KindSlotResize) {
			r.probe.Emit(obs.Event{Cycle: now, Kind: obs.KindSlotResize,
				Node: -1, Val: int64(r.active)})
		}
		return r.active, true
	}
	return r.active, false
}
