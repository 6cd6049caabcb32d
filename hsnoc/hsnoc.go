// Package hsnoc is the public API of the TDM hybrid-switched NoC
// simulator — a from-scratch Go reproduction of "Energy-Efficient
// Time-Division Multiplexed Hybrid-Switched NoC for Heterogeneous
// Multicore Systems" (Yin, Zhou, Sapatnekar, Zhai; IPDPS 2014).
//
// New puts a Workload on a Config over the cycle-accurate engine
// (internal/router, internal/network and friends):
//
//	cfg := hsnoc.DefaultConfig(6, 6)
//	cfg.Mode = hsnoc.HybridTDM
//	sim, err := hsnoc.New(cfg, hsnoc.Synthetic{Pattern: hsnoc.Tornado, Rate: 0.15})
//	if err != nil { ... }
//	defer sim.Close()
//	sim.Warmup(5_000)
//	res := sim.Run(50_000)
//	fmt.Println(res.AvgNetLatency, res.EnergySavingVs(baseline))
//
// The workloads are Synthetic (Section IV), Mix (the Section V CPU+GPU
// system) and Replay (a recorded trace). Every method of the one
// Simulator works the same on all three, and Results carries the
// Section V figures as fields, zero where a workload has none. Check,
// which New runs, is the one test of a Config and a Workload together.
package hsnoc

import (
	"context"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/power"
	"tdmnoc/internal/sdm"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// Mode selects the switching architecture.
type Mode = network.Mode

// The three switching architectures.
const (
	// PacketSwitched is the Packet-VC4 baseline: a canonical 4-stage
	// virtual-channelled wormhole router network.
	PacketSwitched = network.PacketSwitched
	// HybridTDM is the paper's contribution: packet- and circuit-switched
	// traffic share the fabric through per-input-port slot tables.
	HybridTDM = network.HybridTDM
	// HybridSDM is the space-division-multiplexed baseline: links are
	// physically partitioned into planes owned by circuits.
	HybridSDM = network.HybridSDM
)

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

// Config selects and sizes a simulated network; the fields and their
// Table-I defaults are documented on network.Params, the engine's one
// declaration of them. Validate is their one check, and Check runs it.
type Config = network.Params

// FlowPin names one (src, dst) flow pinned to circuit switching.
type FlowPin = policy.FlowPin

// DefaultConfig returns the Table-I baseline configuration for a
// width x height mesh.
func DefaultConfig(width, height int) Config { return network.DefaultConfig(width, height).Params }

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
	// neither); the tile counters are zero outside a Mix.

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
	e := Energy{DynamicPJ: map[string]float64{}, StaticPJ: map[string]float64{}, TotalPJ: b.TotalPJ()}
	for c := power.Component(0); c < power.NumComponents; c++ {
		e.DynamicPJ[c.String()] = b.DynamicPJ[c]
		e.StaticPJ[c.String()] = b.StaticPJ[c]
	}
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
	Energy() power.Breakdown
}

// Simulator drives one Workload over one network instance. Workloads
// differ only in the endpoints their build attaches and in the three
// hooks below; every method applies to all of them.
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

// newSimulator builds the shared router network of a checked
// PacketSwitched or HybridTDM cfg with endpoints from mk.
func newSimulator(cfg Config, mk network.EndpointFactory) *Simulator {
	nc := network.DefaultConfig(cfg.Width, cfg.Height)
	nc.Params = cfg
	// Every endpoint this layer attaches (synthetic generators, the
	// hetero tile models, trace replayers) drops packet references when
	// OnDeliver returns, so message recycling is always safe here.
	nc.PoolMessages = true
	s := &Simulator{cfg: cfg, net: network.New(nc, mk)}
	s.eng = s.net
	return s
}

// Close releases simulator resources: the executor's workers, then the
// attached recorder's event rings, once no worker can write them.
// Summaries, profiles, telemetry plots and heatmaps stay readable after
// Close; the trace does not, so WriteTrace comes first. Idempotent.
func (s *Simulator) Close() {
	if s.net != nil {
		s.net.Close()
	}
	if s.rec != nil {
		s.rec.Close()
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
func (s *Simulator) Warmup(cycles int) { _ = s.WarmupContext(context.Background(), cycles) }

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
	slots := 0
	if s.net != nil {
		slots = s.net.ActiveSlots()
	}
	energy := s.eng.Energy()
	res := Results{
		Cycles:                cycles,
		Packets:               st.EjectedPackets,
		Throughput:            st.Throughput(nodes, cycles),
		PayloadThroughput:     st.PayloadThroughput(tablei.PSDataFlits, nodes, cycles),
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
type Diagnostics = network.Diagnostics

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
	return s.net.Diagnose()
}
