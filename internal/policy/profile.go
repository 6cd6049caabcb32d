// Package policy turns the observability layer into a control input:
// it maps a traffic Profile — the flow table of a flow-tracking run —
// through pluggable policies to a concrete Decision: which flows
// deserve TDM circuits, how the slot table should be sized, how many
// SDM planes to gate. The package is pure: it imports only obs,
// topology and stdlib, so both the public hsnoc API (hsnoc.DecisionProfile
// builds a Profile from a run's Summary; ApplyDecision applies the
// result) and internal/network (whose Params.PinnedFlows holds
// FlowPins) can use it without an import cycle.
//
// Everything here is deterministic by construction: a Profile is a
// pure function of the run's Summary, and Decisions apply through plain
// config fields, so a re-run with the same Decision reproduces its
// state digest bit for bit.
package policy

import "tdmnoc/internal/obs"

// Profile is what a policy decides from: the mesh, the slot-table
// capacity (zero for non-TDM runs) and, from a flow-tracking run's
// Summary, its coverage, injected packet count and per-flow table.
type Profile struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	// Cycles is the recorder's coverage (warmup + measured).
	Cycles       int64 `json:"cycles"`
	Injected     int64 `json:"injected"`
	SlotCapacity int   `json:"slot_capacity"`
	// Flows are the per-(src, dst) aggregates, sorted by (Src, Dst).
	Flows []obs.FlowStat `json:"flows"`
}

// Nodes returns the mesh size.
func (p *Profile) Nodes() int { return p.Width * p.Height }
