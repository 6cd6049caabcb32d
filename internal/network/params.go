package network

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"tdmnoc/internal/policy"
	"tdmnoc/internal/power"
	"tdmnoc/internal/router"
	"tdmnoc/internal/tablei"
)

// Mode selects the switching architecture.
type Mode int

const (
	// PacketSwitched is the Packet-VC4 baseline: a canonical 4-stage
	// virtual-channelled wormhole router network.
	PacketSwitched Mode = iota
	// HybridTDM is the paper's contribution: packet- and circuit-switched
	// traffic share the fabric through per-input-port slot tables.
	HybridTDM
	// HybridSDM is the space-division-multiplexed baseline: links are
	// physically partitioned into planes owned by circuits. Its engine
	// is internal/sdm; New refuses it.
	HybridSDM
)

// String names the mode as the paper's figures label it.
func (m Mode) String() string {
	switch m {
	case PacketSwitched:
		return "Packet-VC4"
	case HybridTDM:
		return "Hybrid-TDM"
	case HybridSDM:
		return "Hybrid-SDM"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Params selects and sizes a simulated network: every knob the public
// API offers (hsnoc re-exports it as Config). Zero values fall back to
// the Table-I parameters; what the paper fixes (internal/tablei: VC
// buffer depth, DLT size, the SDM baseline's link planes) is not a
// setting. Validate is the one check of these knobs; New runs it.
type Params struct {
	// Width and Height of the mesh (Table I: 6x6).
	Width, Height int
	// Mode is the switching architecture.
	Mode Mode
	// VCs per port (Table I: 4).
	VCs int
	// SlotTableEntries is the physical slot-table capacity (Table I: 128;
	// the paper uses 256 for 256-node meshes). HybridTDM only: the other
	// modes' routers keep the Table-I 128 entries, unpowered.
	SlotTableEntries int
	// TimeSlotStealing lets packet-switched flits borrow idle reserved
	// slots (Section II-D). Enabled by default for HybridTDM.
	DisableTimeSlotStealing bool
	// PathSharing enables hitchhiker- and vicinity-sharing
	// (Section III-A) — the paper's "hop" configurations.
	PathSharing bool
	// VCPowerGating enables aggressive VC power gating (Section III-B) —
	// the paper's "VCt" configurations.
	VCPowerGating bool
	// LatencyBasedVCGating swaps the utilisation-driven gate for the
	// buffer-residency-driven refinement the paper suggests in
	// Section V-B4 (implies VCPowerGating).
	LatencyBasedVCGating bool
	// DisableDynamicSlotSizing pins the active slot-table region to the
	// full capacity instead of growing it on demand (Section II-C).
	DisableDynamicSlotSizing bool
	// SAIterations sets the switch allocator's iSLIP iteration count
	// (0/1 = the classic single-pass separable allocator).
	SAIterations int
	// Seed makes runs reproducible; equal seeds give identical results.
	Seed uint64
	// Workers sets executor parallelism (results are identical for any
	// value; >1 only pays off on large meshes).
	Workers int
	// CheckInvariants enables the runtime invariant layer: per-cycle (or
	// per-CheckInterval) verification of flit conservation, credit
	// consistency, slot-table ownership and VC-mask consistency, plus a
	// rolling FNV-1a state digest for serial-vs-parallel equivalence
	// checking. Every checked cycle walks the whole network, so checking
	// every cycle costs tens of times the unchecked runtime (the
	// benchmark's invariant.checked_slowdown_x); it never changes
	// simulation results. Not available for HybridSDM: Validate refuses
	// the combination.
	CheckInvariants bool
	// CheckInterval is the checking cadence in cycles (<= 1 = every
	// cycle). Larger intervals cut the overhead proportionally but
	// detect a divergence or violation only at the next checked cycle.
	CheckInterval int

	// The policy layer (see internal/policy and hsnoc.ApplyDecision):
	// knobs a profile-derived Decision (SlotInit, PinnedFlows,
	// RestrictSetups, GatedPlanes) applies through plain configuration
	// so re-runs stay digest-reproducible. All zero values mean "no
	// policy".

	// SlotInit, when > 0, starts the dynamic slot-table resizer at this
	// active-region size instead of capacity/8 (HybridTDM with dynamic
	// sizing only). Profiled runs use it to skip the discovery
	// doublings — or to hold the table deliberately small.
	SlotInit int
	// PinnedFlows lists (src, dst) node pairs pinned to circuit
	// switching: the source sets their circuits up eagerly on first
	// send, skipping the tablei.SetupThreshold/freqWindow frequency
	// filter.
	PinnedFlows []policy.FlowPin
	// RestrictSetups forbids circuit setups for flows not in
	// PinnedFlows; non-pinned traffic stays packet-switched. With
	// PinnedFlows empty it does nothing: the NIs read it only through
	// pin maps, which a decision that pins nothing never installs.
	RestrictSetups bool
	// GatedPlanes power-gates that many SDM link planes (HybridSDM
	// only; at least 2 planes must stay on).
	GatedPlanes int
}

// Validate checks a configuration for structural errors.
func (c Params) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("hsnoc: mesh %dx%d invalid", c.Width, c.Height)
	}
	if c.Mode < PacketSwitched || c.Mode > HybridSDM {
		return fmt.Errorf("hsnoc: unknown mode %d", c.Mode)
	}
	if c.VCs < 0 || c.SlotTableEntries < 0 || c.SAIterations < 0 {
		return fmt.Errorf("hsnoc: negative structural parameter")
	}
	if c.Mode != HybridSDM && c.VCs > router.MaxVCs {
		return fmt.Errorf("hsnoc: %d VCs per port exceeds the router's limit of %d", c.VCs, router.MaxVCs)
	}
	if c.CheckInterval < 0 {
		return fmt.Errorf("hsnoc: negative check interval %d", c.CheckInterval)
	}
	if c.Mode == HybridSDM && (c.PathSharing || c.VCPowerGating || c.LatencyBasedVCGating) {
		return fmt.Errorf("hsnoc: TDM options set on an SDM configuration")
	}
	if c.Mode == HybridSDM && c.CheckInvariants {
		return fmt.Errorf("hsnoc: CheckInvariants is not available for HybridSDM (its engine has no invariant layer)")
	}
	if c.Mode != HybridTDM && c.PathSharing {
		return fmt.Errorf("hsnoc: PathSharing requires HybridTDM")
	}
	if c.SlotInit < 0 {
		return fmt.Errorf("hsnoc: negative SlotInit %d", c.SlotInit)
	}
	if c.SlotInit > 0 {
		if c.Mode != HybridTDM {
			return fmt.Errorf("hsnoc: SlotInit requires HybridTDM")
		}
		if slots := c.slotCapacity(); c.SlotInit > slots {
			return fmt.Errorf("hsnoc: SlotInit %d exceeds the %d-entry slot table", c.SlotInit, slots)
		}
	}
	if (len(c.PinnedFlows) > 0 || c.RestrictSetups) && c.Mode != HybridTDM {
		return fmt.Errorf("hsnoc: flow pinning requires HybridTDM")
	}
	nodes := c.Width * c.Height
	for _, p := range c.PinnedFlows {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			return fmt.Errorf("hsnoc: pinned flow %d->%d outside the %dx%d mesh", p.Src, p.Dst, c.Width, c.Height)
		}
	}
	if c.GatedPlanes != 0 {
		if c.Mode != HybridSDM {
			return fmt.Errorf("hsnoc: GatedPlanes requires HybridSDM")
		}
		if c.GatedPlanes < 0 || c.GatedPlanes > tablei.SDMPlanes-2 {
			return fmt.Errorf("hsnoc: GatedPlanes %d of %d planes (at least 2 must stay on)", c.GatedPlanes, tablei.SDMPlanes)
		}
	}
	return nil
}

// slotCapacity is the TDM slot-table size SlotTableEntries asks for.
func (c Params) slotCapacity() int { return cmp.Or(c.SlotTableEntries, tablei.SlotTableEntries) }

// RouterAreaMM2 reports the modelled router area for this configuration
// (Section IV-A: 0.177 mm^2 packet-switched, 0.188 mm^2 hybrid).
func (c Params) RouterAreaMM2() float64 {
	rc := power.RouterAreaConfig{VCsPerPort: cmp.Or(c.VCs, tablei.VCs)}
	if c.Mode == HybridTDM {
		rc.Hybrid = true
		rc.SlotTableEntries = c.slotCapacity()
	}
	return power.RouterAreaMM2(rc)
}

// Hash returns a canonical fingerprint of the configuration: a SHA-256
// over its canonical JSON encoding (appendJSON). Two configs hash equal
// exactly when every field, including Seed, is equal — Workers is
// excluded because executor parallelism never changes simulation
// results, and the invariant-checking knobs (CheckInvariants,
// CheckInterval) are excluded because checking only observes a run.
// The hash is the cache key of the campaign engine, so a change to the
// encoding invalidates cached campaign results (by design: a hash must
// never collide across semantically different configs).
func (c Params) Hash() string {
	var buf [2 * sha256.Size]byte
	return string(c.AppendHash(buf[:0]))
}

// AppendHash appends Hash's hex digits to dst.
func (c Params) AppendHash(dst []byte) []byte {
	c.Workers = 0
	c.CheckInvariants = false
	c.CheckInterval = 0
	var buf [512]byte
	sum := sha256.Sum256(c.appendJSON(buf[:0]))
	return hex.AppendEncode(dst, sum[:])
}

// appendJSON appends the encoding json.Marshal gave c when the public
// Config still declared BufferDepth, Planes, DLTEntries, AdaptiveEpoch
// and AdaptiveTopK, written by hand because reflection dominated the
// cost of expanding a campaign spec. The first three are the model's
// constants now and the last two belonged to a removed online
// controller; their bytes stay at their positions with the values every
// job carried (5, 4, 0, 0 and 0), so no job key moved when they left
// Config.
// TestConfigHashMatchesJSON and FuzzConfigHash hold the encoding equal
// to json.Marshal of that earlier Config, so a field added to Params and
// not here fails the tests.
func (c Params) appendJSON(b []byte) []byte {
	b = appendInt(b, `{"Width":`, c.Width)
	b = appendInt(b, `,"Height":`, c.Height)
	b = appendInt(b, `,"Mode":`, int(c.Mode))
	b = appendInt(b, `,"VCs":`, c.VCs)
	b = append(b, `,"BufferDepth":5`...)
	b = appendInt(b, `,"SlotTableEntries":`, c.SlotTableEntries)
	b = appendBool(b, `,"DisableTimeSlotStealing":`, c.DisableTimeSlotStealing)
	b = appendBool(b, `,"PathSharing":`, c.PathSharing)
	b = appendBool(b, `,"VCPowerGating":`, c.VCPowerGating)
	b = appendBool(b, `,"LatencyBasedVCGating":`, c.LatencyBasedVCGating)
	b = appendBool(b, `,"DisableDynamicSlotSizing":`, c.DisableDynamicSlotSizing)
	b = appendInt(b, `,"SAIterations":`, c.SAIterations)
	b = append(b, `,"Planes":4`...)
	b = strconv.AppendUint(append(b, `,"Seed":`...), c.Seed, 10)
	b = appendInt(b, `,"Workers":`, c.Workers)
	b = appendBool(b, `,"CheckInvariants":`, c.CheckInvariants)
	b = appendInt(b, `,"CheckInterval":`, c.CheckInterval)
	b = append(b, `,"DLTEntries":0`...)
	b = appendInt(b, `,"SlotInit":`, c.SlotInit)
	b = append(b, `,"PinnedFlows":`...)
	if c.PinnedFlows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range c.PinnedFlows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"src":`, p.Src)
			b = appendInt(b, `,"dst":`, p.Dst)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendBool(b, `,"RestrictSetups":`, c.RestrictSetups)
	b = appendInt(b, `,"GatedPlanes":`, c.GatedPlanes)
	return append(b, `,"AdaptiveEpoch":0,"AdaptiveTopK":0}`...)
}

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}
