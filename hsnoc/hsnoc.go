// Package hsnoc is the public API of the TDM hybrid-switched NoC
// simulator — a from-scratch Go reproduction of "Energy-Efficient
// Time-Division Multiplexed Hybrid-Switched NoC for Heterogeneous
// Multicore Systems" (Yin, Zhou, Sapatnekar, Zhai; IPDPS 2014).
//
// The package wraps the cycle-accurate engine (internal/router,
// internal/network and friends) behind a small configuration surface:
//
//	cfg := hsnoc.DefaultConfig(6, 6)
//	cfg.Mode = hsnoc.HybridTDM
//	sim := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, 0.15)
//	defer sim.Close()
//	sim.Warmup(5_000)
//	res := sim.Run(50_000)
//	fmt.Println(res.AvgNetLatency, res.EnergySavingVs(baseline))
//
// Three switching modes are available: the canonical packet-switched
// baseline (Packet-VC4 in the paper), the TDM hybrid-switched network
// that is the paper's contribution, and the SDM hybrid baseline of Jerger
// et al. used in the Fig. 4 comparison.
//
// There is one Simulator and three workloads to put on it, each a
// constructor: NewSynthetic (the Section IV patterns), NewHeterogeneous
// (the Section V 36-tile CPU+GPU system) and NewReplay (a recorded
// trace). Warm-up, measurement, draining, invariant checking, state
// digests, telemetry, Perfetto traces, profiles and policy decisions are
// methods of Simulator and work the same on all three; Results carries
// the Section V figures as ordinary fields, zero where a workload has
// none. HybridSDM runs synthetic traffic only.
package hsnoc

import (
	"context"
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/power"
	"tdmnoc/internal/sdm"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
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
	// physically partitioned into planes owned by circuits.
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

// Pattern is a synthetic traffic pattern (Section IV).
type Pattern = traffic.Pattern

// The synthetic patterns of Section IV plus two extras used by ablations.
const (
	UniformRandom = traffic.UniformRandom
	Tornado       = traffic.Tornado
	Transpose     = traffic.Transpose
	BitComplement = traffic.BitComplement
	Neighbor      = traffic.Neighbor
	Hotspot       = traffic.Hotspot
)

// Config selects and sizes a simulated network. Zero values fall back to
// the Table-I parameters; what the paper fixes — 5-flit VC buffers, an
// 8-entry DLT, the SDM baseline's sdm.DefaultPlanes link planes — is
// not a setting.
type Config struct {
	// Width and Height of the mesh (Table I: 6x6).
	Width, Height int
	// Mode is the switching architecture.
	Mode Mode
	// VCs per port (Table I: 4).
	VCs int
	// SlotTableEntries is the physical slot-table capacity (Table I: 128;
	// the paper uses 256 for 256-node meshes).
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

	// The policy layer (see internal/policy and ApplyDecision): knobs a
	// profile-derived Decision (SlotInit, PinnedFlows, RestrictSetups,
	// GatedPlanes) applies through plain configuration so re-runs stay
	// digest-reproducible, and the online controller's AdaptiveEpoch /
	// AdaptiveTopK. All zero values mean "no policy".

	// SlotInit, when > 0, starts the dynamic slot-table resizer at this
	// active-region size instead of capacity/8 (HybridTDM with dynamic
	// sizing only). Profiled runs use it to skip the discovery
	// doublings — or to hold the table deliberately small.
	SlotInit int
	// PinnedFlows lists (src, dst) node pairs pinned to circuit
	// switching: the source sets their circuits up eagerly on first
	// send, skipping the frequency filter.
	PinnedFlows []FlowPin
	// RestrictSetups forbids circuit setups for flows not in
	// PinnedFlows; non-pinned traffic stays packet-switched.
	RestrictSetups bool
	// GatedPlanes power-gates that many SDM link planes (HybridSDM
	// only; at least 2 planes must stay on).
	GatedPlanes int
	// AdaptiveEpoch, when > 0, enables the online in-sim controller:
	// every AdaptiveEpoch cycles the network decides the greedy:K policy
	// (K = AdaptiveTopK, default 8) on the epoch's flow window and pins
	// its flows, re-allocating slot tables when the set changed.
	// HybridTDM only; telemetry (with flow tracking) is attached
	// automatically if the caller has not attached its own.
	AdaptiveEpoch int64
	AdaptiveTopK  int
}

// FlowPin names one (src, dst) flow pinned to circuit switching.
type FlowPin = policy.FlowPin

// DefaultConfig returns the Table-I baseline configuration for a
// width x height mesh.
func DefaultConfig(width, height int) Config {
	return Config{Width: width, Height: height, VCs: 4, SlotTableEntries: 128, Seed: 1, Workers: 1}
}

// networkConfig lowers the public Config onto the engine configuration.
func (c Config) networkConfig() network.Config {
	nc := network.DefaultConfig(c.Width, c.Height)
	nc.Seed = c.Seed
	if c.Workers > 0 {
		nc.Workers = c.Workers
	}
	if c.VCs > 0 {
		nc.Router.VCs = c.VCs
	}
	if c.SAIterations > 0 {
		nc.Router.SAIterations = c.SAIterations
	}
	if c.Mode == HybridTDM {
		nc.Router.Hybrid = true
		nc.DynamicSlots = !c.DisableDynamicSlotSizing
		if c.SlotTableEntries > 0 {
			nc.Router.SlotCapacity = c.SlotTableEntries
			nc.Router.SlotActive = c.SlotTableEntries
		}
		nc.Router.TimeSlotStealing = !c.DisableTimeSlotStealing
		if c.PathSharing {
			nc = nc.WithSharing()
		}
		nc.SlotInit = c.SlotInit
		if len(c.PinnedFlows) > 0 {
			nc.PinnedFlows = make([]network.PinnedFlow, len(c.PinnedFlows))
			for i, p := range c.PinnedFlows {
				nc.PinnedFlows[i] = network.PinnedFlow{Src: p.Src, Dst: p.Dst}
			}
		}
		nc.RestrictSetups = c.RestrictSetups
		nc.AdaptiveEpoch = c.AdaptiveEpoch
		nc.AdaptiveTopK = c.AdaptiveTopK
	}
	if c.VCPowerGating {
		nc = nc.WithVCGating()
	}
	if c.LatencyBasedVCGating {
		nc = nc.WithLatencyVCGating()
	}
	nc.CheckInvariants = c.CheckInvariants
	nc.CheckInterval = c.CheckInterval
	// Every endpoint this layer attaches (synthetic generators, the
	// hetero tile models, trace replayers) drops packet references when
	// OnDeliver returns, so message recycling is always safe here.
	nc.PoolMessages = true
	return nc
}

// sdmConfig lowers the public Config onto the SDM engine.
func (c Config) sdmConfig() sdm.Config {
	sc := sdm.DefaultConfig(c.Width, c.Height)
	sc.Seed = c.Seed
	if c.VCs > 0 {
		sc.VCs = c.VCs
	}
	sc.GatedPlanes = c.GatedPlanes
	return sc
}

// Results summarises one measured region.
type Results struct {
	// Cycles is the measured-region length.
	Cycles int64
	// Packets delivered during measurement.
	Packets int64
	// AvgNetLatency is mean injection-to-ejection latency (cycles).
	AvgNetLatency float64
	// AvgTotalLatency includes source queueing and circuit-slot stalls.
	AvgTotalLatency float64
	// Throughput is accepted flits/node/cycle.
	Throughput float64
	// PayloadThroughput normalises packets to packet-switched flit
	// equivalents (a circuit-switched packet carries a cache line in 4
	// flits instead of 5).
	PayloadThroughput float64
	// CSFlitFraction is the share of data flits that rode circuits.
	CSFlitFraction float64
	// ConfigTrafficFraction is setup/teardown/ack flits over all flits.
	ConfigTrafficFraction float64
	// Hitchhikes and VicinityRides count path-sharing uses.
	Hitchhikes, VicinityRides int64
	// CircuitsEstablished counts successful path setups.
	CircuitsEstablished int64
	// ActiveSlotEntries is the slot-table region in use at the end
	// (dynamic sizing).
	ActiveSlotEntries int
	// Energy is the network energy breakdown for the measured region.
	Energy Energy

	// The Section V figures. The per-class ones are zero unless the
	// workload sends CPU- or GPU-class traffic (synthetic traffic is
	// neither); the tile counters are zero outside NewHeterogeneous.

	// CPUInstructions retired and GPUIterations completed during the
	// measured region — Fig. 8(b)/(c) speedups are ratios of these
	// between configurations.
	CPUInstructions int64
	GPUIterations   int64
	// GPUInjectionRate (flits/node/cycle offered by accelerator tiles)
	// and GPUCSFraction (share of GPU flits that rode circuits)
	// reproduce Table III.
	GPUInjectionRate float64
	GPUCSFraction    float64
	// AvgCPULatency / AvgGPULatency are per-class mean packet latencies.
	AvgCPULatency float64
	AvgGPULatency float64
}

// Energy is the per-component energy of Fig. 9, in picojoules.
type Energy struct {
	DynamicPJ map[string]float64
	StaticPJ  map[string]float64
	TotalPJ   float64
}

func energyFrom(b power.Breakdown) Energy {
	e := Energy{DynamicPJ: map[string]float64{}, StaticPJ: map[string]float64{}}
	for c := power.Component(0); c < power.NumComponents; c++ {
		e.DynamicPJ[c.String()] = b.DynamicPJ[c]
		e.StaticPJ[c.String()] = b.StaticPJ[c]
	}
	e.TotalPJ = b.TotalPJ()
	return e
}

// EnergySavingVs returns the fractional energy saving of r relative to a
// baseline run (positive = r uses less energy). Both sides are
// normalised to energy per measured cycle, so records of different
// lengths (e.g. a run that stopped at a packet target vs a full-length
// baseline) compare meaningfully. Returns 0 when either record has no
// measured cycles or the baseline recorded no energy.
func (r Results) EnergySavingVs(baseline Results) float64 {
	if r.Cycles == 0 || baseline.Cycles == 0 || baseline.Energy.TotalPJ == 0 {
		return 0
	}
	perCycle := r.Energy.TotalPJ / float64(r.Cycles)
	basePerCycle := baseline.Energy.TotalPJ / float64(baseline.Cycles)
	return 1 - perCycle/basePerCycle
}

// engine is what the measurement loop needs of a cycle kernel; the
// shared router network and the SDM baseline both provide it.
type engine interface {
	Run(cycles int)
	EnableStats()
	Drain(limit int) bool
	PacketPool() (allocated, free int)
}

// Simulator drives one workload over one network instance. A workload
// is an endpoint population — synthetic generators (NewSynthetic), the
// Section V tile models (NewHeterogeneous) or trace replayers
// (NewReplay) — and differs from the others only in the
// network.EndpointFactory its constructor passes and in the three hooks
// below; every method applies to all three.
type Simulator struct {
	cfg Config

	// eng is net or sdmNet, whichever cfg.Mode selects; the other is nil.
	eng    engine
	net    *network.Network
	sdmNet *sdm.Network

	// Workload hooks. halt stops the endpoints injecting (StopTraffic);
	// resetCounters, if set, zeroes per-tile performance counters when
	// measurement starts; extend, if set, adds the figures only this
	// workload has to collected Results.
	halt          func()
	resetCounters func()
	extend        func(*Results)

	// rec is the attached observability recorder (nil = telemetry off);
	// recEvery is its sampling interval. See telemetry.go.
	rec      *obs.Recorder
	recEvery int

	// measuring is set, and measuredFrom is the cycle statistics were
	// enabled at, once the first Run* call opens the measured region.
	measuring    bool
	measuredFrom int64
}

// newSimulator builds the shared router network of a PacketSwitched or
// HybridTDM configuration with endpoints from mk.
func newSimulator(cfg Config, mk network.EndpointFactory) *Simulator {
	s := &Simulator{cfg: cfg}
	s.net = network.New(cfg.networkConfig(), mk)
	s.eng = s.net
	return s
}

// NewSynthetic builds a simulator offering the given pattern at the given
// injection rate (flits/node/cycle). All traffic is circuit-switching
// eligible, matching the Section IV evaluation.
func NewSynthetic(cfg Config, pattern Pattern, rate float64) *Simulator {
	if cfg.Mode == HybridSDM {
		// The SDM engine predates network.Endpoint: it draws one
		// destination per source per cycle from a generator callback,
		// which is why synthetic traffic is the only workload it runs.
		sc := cfg.sdmConfig()
		mesh := topology.NewMesh(cfg.Width, cfg.Height)
		sn := sdm.New(sc, func(now int64, src topology.NodeID, rng *sim.RNG) (topology.NodeID, bool) {
			if !rng.Bernoulli(rate / float64(sdm.PacketFlits)) {
				return 0, false
			}
			return traffic.Destination(pattern, mesh, src, rng)
		})
		return &Simulator{cfg: cfg, eng: sn, sdmNet: sn, halt: sn.StopGeneration}
	}
	var gens []*traffic.Synthetic
	psFlits := cfg.networkConfig().PSDataFlits
	s := newSimulator(cfg, func(topology.NodeID) network.Endpoint {
		g := traffic.NewSynthetic(pattern, rate, psFlits, cfg.Mode == HybridTDM)
		gens = append(gens, g)
		return g
	})
	s.halt = func() {
		for _, g := range gens {
			g.Stop()
		}
	}
	return s
}

// NewReplay builds a simulator that injects a recorded trace: every
// event is sent from its source at its recorded cycle (cycle 0 is the
// first simulated cycle, so replay needs no warm-up). The mesh must
// match the trace's. To replay to completion, Run past t.Duration(),
// Drain, and read the final figures with Run(0).
func NewReplay(cfg Config, t *Trace) (*Simulator, error) {
	if cfg.Mode == HybridSDM {
		return nil, fmt.Errorf("hsnoc: trace replay supports PacketSwitched and HybridTDM only")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Width != t.Width || cfg.Height != t.Height {
		return nil, fmt.Errorf("hsnoc: %dx%d trace cannot replay on a %dx%d mesh", t.Width, t.Height, cfg.Width, cfg.Height)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("hsnoc: %w", err)
	}
	reps := trace.NewReplayers(t, 0)
	s := newSimulator(cfg, func(id topology.NodeID) network.Endpoint {
		if r := reps[id]; r != nil {
			return r
		}
		return nil // a tile the trace never sends from only sinks
	})
	s.halt = func() {
		for _, r := range reps {
			r.Stop()
		}
	}
	return s, nil
}

// Trace is a recorded traffic trace (see internal/trace and
// cmd/tracegen, which synthesizes, saves and loads them).
type Trace = trace.Trace

// Close releases simulator resources.
func (s *Simulator) Close() {
	if s.net != nil {
		s.net.Close()
	}
}

// StopTraffic stops the workload injecting new traffic (generators go
// quiet, cores halt, replayers drop their remaining events); combine
// with Drain to let every in-flight packet land before reading final
// statistics.
func (s *Simulator) StopTraffic() { s.halt() }

// Drain runs until every sent packet has been delivered or limit cycles
// pass, reporting success. Call StopTraffic first. Cycles drained after
// measurement has begun belong to the measured region: Run(0) afterwards
// returns results that include them.
func (s *Simulator) Drain(limit int) bool { return s.eng.Drain(limit) }

// ensureAdaptiveTelemetry attaches the recorder the online controller
// feeds on when AdaptiveEpoch is set and the caller has not attached
// telemetry of their own. Called lazily at the first Warmup/Run so an
// explicit AttachTelemetry (e.g. the campaign runner's) wins — it
// force-enables flow tracking itself when the controller is on.
func (s *Simulator) ensureAdaptiveTelemetry() {
	if s.net == nil || s.cfg.AdaptiveEpoch <= 0 || s.rec != nil {
		return
	}
	if _, err := s.AttachTelemetry(FlowProfileTelemetry(int(s.cfg.AdaptiveEpoch))); err != nil {
		panic(fmt.Sprintf("hsnoc: adaptive telemetry attach: %v", err))
	}
}

// runChunk is the cycle-granularity at which context cancellation and
// packet targets are checked: coarse enough that the check is free,
// fine enough that a cancelled campaign job aborts within microseconds.
const runChunk = 1024

// noTarget tells advance to run the full cycle count.
const noTarget = -1

// advance is the one stepping loop under every Warmup* and Run* method:
// up to cycles cycles in runChunk pieces (the engines' Run is a plain
// loop over single steps, so chunking changes nothing), stopping early
// when ctx is cancelled or once target packets have been delivered.
func (s *Simulator) advance(ctx context.Context, cycles int, target int64) error {
	s.ensureAdaptiveTelemetry()
	for done := 0; done < cycles && (target == noTarget || s.stats().EjectedPackets < target); {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(runChunk, cycles-done)
		s.eng.Run(n)
		done += n
	}
	return nil
}

// measure opens the measured region if this is the first measuring call
// (statistics on, energy meters and workload counters zeroed), advances,
// and collects results over the whole region so far.
func (s *Simulator) measure(ctx context.Context, cycles int, target int64) (Results, error) {
	if !s.measuring {
		s.eng.EnableStats()
		if s.resetCounters != nil {
			s.resetCounters()
		}
		s.measuring, s.measuredFrom = true, s.now()
	}
	if err := s.advance(ctx, cycles, target); err != nil {
		return Results{}, err
	}
	return s.collect(), nil
}

// Warmup advances the simulation without measuring (the paper warms the
// network with 1000 packets before measurement).
func (s *Simulator) Warmup(cycles int) {
	_ = s.advance(context.Background(), cycles, noTarget) // Background is never cancelled
}

// WarmupContext advances like Warmup but aborts when ctx is cancelled.
func (s *Simulator) WarmupContext(ctx context.Context, cycles int) error {
	return s.advance(ctx, cycles, noTarget)
}

// Run measures the next cycles cycles and returns the results of the
// measured region. The region opens at the first Run* call; later calls
// (and any Drain between them) extend it rather than starting a new one,
// so results always cover everything measured so far.
func (s *Simulator) Run(cycles int) Results {
	res, _ := s.measure(context.Background(), cycles, noTarget) // Background is never cancelled
	return res
}

// RunContext measures like Run but aborts early (returning no results)
// when ctx is cancelled. It is the measurement entry point of the
// campaign engine, whose jobs carry per-job timeouts.
func (s *Simulator) RunContext(ctx context.Context, cycles int) (Results, error) {
	return s.measure(ctx, cycles, noTarget)
}

// RunUntilPackets measures until target data packets have been ejected
// or limit cycles elapse, whichever comes first, and returns results
// over the cycles actually simulated. A zero-rate generator never
// reaches a positive target; callers should validate that combination
// up front (cmd/nocsim does).
func (s *Simulator) RunUntilPackets(target int64, limit int) Results {
	res, _ := s.measure(context.Background(), limit, max(target, 0)) // Background is never cancelled
	return res
}

// now is the engine's current cycle.
func (s *Simulator) now() int64 {
	if s.net != nil {
		return int64(s.net.Now())
	}
	return s.sdmNet.Now()
}

// stats is the engine's merged statistics collector.
func (s *Simulator) stats() stats.Collector {
	if s.net != nil {
		return s.net.Stats()
	}
	return s.sdmNet.Stats
}

func (s *Simulator) collect() Results {
	st := s.stats()
	cycles := s.now() - s.measuredFrom
	nodes := s.cfg.Width * s.cfg.Height
	psFlits, slots := sdm.PacketFlits, 0
	var energy power.Breakdown
	if s.net != nil {
		psFlits, slots = s.net.Config().PSDataFlits, s.net.ActiveSlots()
		energy = s.net.Energy()
	} else {
		energy = s.sdmNet.Energy()
	}
	res := Results{
		Cycles:                cycles,
		Packets:               st.EjectedPackets,
		Throughput:            st.Throughput(nodes, cycles),
		PayloadThroughput:     st.PayloadThroughput(psFlits, nodes, cycles),
		CSFlitFraction:        st.CSFlitFraction(),
		ConfigTrafficFraction: st.ConfigTrafficFraction(),
		Hitchhikes:            st.Hitchhikes,
		VicinityRides:         st.VicinityRides,
		CircuitsEstablished:   st.SetupsOK,
		ActiveSlotEntries:     slots,
		Energy:                energyFrom(energy),
		GPUCSFraction:         st.ClassCSFraction(flit.ClassGPU),
	}
	res.AvgNetLatency, _ = st.AvgNetLatency()
	res.AvgTotalLatency, _ = st.AvgTotalLatency()
	if n := st.ClassLatencyCount[flit.ClassCPU]; n > 0 {
		res.AvgCPULatency = float64(st.ClassLatencySum[flit.ClassCPU]) / float64(n)
	}
	if n := st.ClassLatencyCount[flit.ClassGPU]; n > 0 {
		res.AvgGPULatency = float64(st.ClassLatencySum[flit.ClassGPU]) / float64(n)
	}
	if s.extend != nil {
		s.extend(&res)
	}
	return res
}

// PacketPool reports the simulator's own packet memory: how many packet
// objects its pools have ever allocated and how many of those are free
// right now, summed over the executor partitions' pools and the tier
// they share. allocated-free is the packets alive in the network; the
// population never shrinks, so allocated is also its high-water mark.
// Host-side bookkeeping, not simulated state: with Workers > 1 the
// split between pools, and so the total, depends on scheduling.
func (s *Simulator) PacketPool() (allocated, free int) { return s.eng.PacketPool() }

// ArenaBytes reports the simulator's own block-allocated memory by
// owner: slot-table entries, routers and NIs, each the sum of its
// per-partition slabs (length times element size, counted at
// construction). All zero for HybridSDM, which has no arenas. Host-side
// bookkeeping, not simulated state.
func (s *Simulator) ArenaBytes() (slots, routers, nis int) {
	if s.net == nil {
		return 0, 0, 0
	}
	return s.net.ArenaBytes()
}

// WaitStats is one parallel-executor participant's barrier accounting:
// waits that ended parked, and time waited past each wait's first spin
// round.
type WaitStats = sim.WaitStats

// ExecutorWaits reports the parallel executor's barrier accounting over
// every cycle stepped so far: the cycle count, and one WaitStats per
// participant with the calling goroutine's partition first. waits is nil
// for a serial run (Workers <= 1) and for HybridSDM. The figures depend
// on host timing: they describe the simulator's speed and enter no
// Results, Diagnostics or digest.
func (s *Simulator) ExecutorWaits() (cycles int64, waits []WaitStats) {
	if s.net == nil {
		return s.now(), nil
	}
	return s.now(), s.net.BarrierWaits()
}

// Diagnostics reports protocol-invariant violations (all zero in correct
// runs) plus the stolen-slot count. Not available for HybridSDM.
type Diagnostics struct {
	MisroutedCS, DroppedCS, LatchConflicts, StolenSlots int64
}

// UtilizationGrid returns per-router activity (fraction of cycles doing
// work) as a Height x Width grid — the raw material for a utilisation
// heatmap. Not available for HybridSDM (returns nil).
func (s *Simulator) UtilizationGrid() [][]float64 {
	if s.net == nil {
		return nil
	}
	s.net.SyncMeters() // include leakage of cycles active-node scheduling skipped
	m := s.net.Mesh()
	grid := make([][]float64, m.Height)
	for y := 0; y < m.Height; y++ {
		grid[y] = make([]float64, m.Width)
		for x := 0; x < m.Width; x++ {
			mt := s.net.Router(m.ID(topology.Coord{X: x, Y: y})).Meter()
			if mt.Cycles > 0 {
				grid[y][x] = float64(mt.ActiveCycles) / float64(mt.Cycles)
			}
		}
	}
	return grid
}

// Diagnose returns the simulator's invariant counters.
func (s *Simulator) Diagnose() Diagnostics {
	if s.net == nil {
		return Diagnostics{}
	}
	d := s.net.Diagnose()
	return Diagnostics{
		MisroutedCS: d.MisroutedCS, DroppedCS: d.DroppedCS,
		LatchConflicts: d.LatchConflicts, StolenSlots: d.StolenSlots,
	}
}

// RouterAreaMM2 reports the modelled router area for this configuration
// (Section IV-A: 0.177 mm^2 packet-switched, 0.188 mm^2 hybrid).
func (c Config) RouterAreaMM2() float64 {
	vcs := c.VCs
	if vcs == 0 {
		vcs = 4
	}
	rc := power.RouterAreaConfig{Ports: 5, VCsPerPort: vcs, BufferDepth: 5}
	if c.Mode == HybridTDM {
		rc.Hybrid = true
		rc.SlotTableEntries = c.SlotTableEntries
		if rc.SlotTableEntries == 0 {
			rc.SlotTableEntries = 128
		}
		rc.DLTEntries = 8
	}
	return power.RouterAreaMM2(rc)
}
