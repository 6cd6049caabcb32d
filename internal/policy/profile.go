// Package policy turns the observability layer into a control input:
// it derives a deterministic traffic Profile from an obs.Recorder and
// maps it, through pluggable policies, to a concrete Decision — which
// flows deserve TDM circuits, how the slot table should be sized, how
// many SDM planes to gate. The package is pure: it imports only obs,
// topology and stdlib, so both the public hsnoc API (profile
// extraction, decision application) and internal/network (the online
// in-sim controller, which runs Greedy on each epoch's flow window) can
// use it without an import cycle.
//
// Everything here is deterministic by construction. Profiles serialize
// to stable JSON keyed by the originating Config.Hash(), so they are
// cacheable artifacts in the campaign store; Decisions apply through
// plain config fields, so a re-run with the same Decision reproduces
// its state digest bit for bit.
package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/topology"
)

// Profile is the offline traffic profile of one simulated run: the
// aggregate switch between circuit and packet traffic, the converged
// slot-table state, per-link heat, and the per-flow table policies
// rank. It is a pure function of the simulation (byte-identical JSON
// at any worker count — pinned by test), keyed by the configuration
// hash of the run that produced it.
type Profile struct {
	// ConfigHash is hsnoc.Config.Hash() of the profiled run. `nocsim
	// -policy -profile-in` refuses a profile whose hash does not match
	// the config it re-runs.
	ConfigHash string `json:"config_hash"`
	// Mode is the switching mode of the profiled run ("packet", "tdm",
	// "sdm").
	Mode   string `json:"mode"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Cycles is the recorder's coverage (warmup + measured).
	Cycles int64 `json:"cycles"`

	Injected     int64 `json:"injected"`
	Ejected      int64 `json:"ejected"`
	CSFlits      int64 `json:"cs_flits"`
	PSFlits      int64 `json:"ps_flits"`
	Steals       int64 `json:"steals"`
	SetupsOK     int64 `json:"setups_ok"`
	SetupsFailed int64 `json:"setups_failed"`

	// SlotActive is the active slot-table region at the end of the run
	// (the dynamic resizer's converged size), SlotCapacity its ceiling,
	// ResizeEvents how many freeze→drain→reset doublings it took to get
	// there. Zero for non-TDM runs.
	SlotActive   int `json:"slot_active"`
	SlotCapacity int `json:"slot_capacity"`
	ResizeEvents int `json:"resize_events"`

	// SetupLatency is the merged setup round-trip histogram.
	SetupLatency obs.Histogram `json:"setup_latency"`

	// LinkFlits is the link-heat map, indexed node*ports+port, exactly
	// as the recorder counts it.
	LinkPorts int     `json:"link_ports"`
	LinkFlits []int64 `json:"link_flits"`

	// Flows are the per-(src, dst) aggregates, sorted by (Src, Dst).
	Flows []obs.FlowStat `json:"flows"`
}

// Nodes returns the mesh size.
func (p *Profile) Nodes() int { return p.Width * p.Height }

// CircuitShare returns the fraction of link traversals that rode
// circuits, the profile's headline "how hybrid was this run" number.
func (p *Profile) CircuitShare() float64 {
	total := p.CSFlits + p.PSFlits
	if total == 0 {
		return 0
	}
	return float64(p.CSFlits) / float64(total)
}

// SetupSuccessRate returns the fraction of setup round trips that
// acked successfully (1 when no setups were attempted).
func (p *Profile) SetupSuccessRate() float64 {
	total := p.SetupsOK + p.SetupsFailed
	if total == 0 {
		return 1
	}
	return float64(p.SetupsOK) / float64(total)
}

// Encode returns the profile's stable JSON form: indented, fields in
// struct order, trailing newline. encoding/json is deterministic for
// struct types, so two profiles of the same run are byte-identical.
func (p *Profile) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the profile's JSON form to path.
func (p *Profile) WriteFile(path string) error {
	b, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadProfile decodes a profile from r, rejecting unknown fields so a
// schema drift between writer and reader fails loudly.
func ReadProfile(r io.Reader) (*Profile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	p := &Profile{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("policy: decode profile: %w", err)
	}
	if p.Width <= 0 || p.Height <= 0 {
		return nil, fmt.Errorf("policy: profile has no mesh size")
	}
	return p, nil
}

// ReadProfileFile reads a profile from a JSON file.
func ReadProfileFile(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadProfile(bytes.NewReader(b))
}

// FromSummary assembles the part of a Profile a recorder Summary
// carries: the aggregate counters and, from a flow-tracking recorder,
// the per-flow table. That is everything Decide reads except the
// slot-table capacity, so a stored Summary is enough to re-derive a
// run's decisions.
func FromSummary(sum *obs.Summary, width, height int) *Profile {
	return &Profile{
		Width:        width,
		Height:       height,
		Cycles:       sum.Cycles,
		Injected:     sum.Injected,
		Ejected:      sum.Ejected,
		CSFlits:      sum.CSFlits,
		PSFlits:      sum.PSFlits,
		Steals:       sum.Steals,
		SetupsOK:     sum.SetupsOK,
		SetupsFailed: sum.SetupsFailed,
		SetupLatency: sum.SetupLatency,
		Flows:        sum.Flows,
	}
}

// FromRecorder assembles the recorder-derived part of a Profile: its
// Summary (FromSummary) plus the link heat. The caller fills
// ConfigHash, Mode and the slot-table fields (which live outside the
// recorder). The recorder must have been built with TrackFlows.
func FromRecorder(rec *obs.Recorder, width, height, ports int) (*Profile, error) {
	if rec == nil {
		return nil, fmt.Errorf("policy: nil recorder")
	}
	if !rec.FlowTracking() {
		return nil, fmt.Errorf("policy: recorder was built without TrackFlows")
	}
	p := FromSummary(rec.Summary(), width, height)
	p.LinkPorts = ports
	p.LinkFlits = make([]int64, width*height*ports)
	for n := 0; n < width*height; n++ {
		for pt := 0; pt < ports; pt++ {
			p.LinkFlits[n*ports+pt] = rec.LinkFlits(n, topology.Port(pt))
		}
	}
	return p, nil
}
