package hetero

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/workload"
)

// CPUCore is the abstract four-way out-of-order core of Table II: it
// retires instructions at the benchmark's IPC while fewer than MLP misses
// are outstanding, and stalls otherwise — so network latency throttles it
// exactly as far as its memory-level parallelism allows. All CPU traffic
// is packet-switched (Section V-A2).
type CPUCore struct {
	layout *Layout
	bench  workload.CPUBenchmark

	// Retired counts committed instructions — the performance metric.
	Retired int64

	// halted stops the core (System.Halt): no instructions, no misses.
	halted bool

	outstanding int
	burstLeft   int
	instrAccum  float64
	missAccum   float64
	bankRR      int
}

// NewCPUCore builds a core running bench.
func NewCPUCore(layout *Layout, bench workload.CPUBenchmark) *CPUCore {
	return &CPUCore{layout: layout, bench: bench}
}

// Tick implements network.Endpoint.
func (c *CPUCore) Tick(now sim.Cycle, ni *network.NI) {
	if c.halted || c.outstanding >= c.bench.MLP {
		return // halted, or stalled on memory
	}
	c.instrAccum += c.bench.IPC
	retire := int64(c.instrAccum)
	c.instrAccum -= float64(retire)
	c.Retired += retire
	// Misses arrive in bursts of BurstSize (streaming access patterns),
	// which is what lets a burst exhaust the MLP window and stall the
	// core — coupling its performance to memory latency.
	c.missAccum += float64(retire) * c.bench.MissesPerKInstr / 1000 / float64(max(1, c.bench.BurstSize))
	for c.missAccum >= 1 {
		c.missAccum--
		c.burstLeft += c.bench.BurstSize
	}
	for c.burstLeft > 0 && c.outstanding < c.bench.MLP {
		c.burstLeft--
		c.outstanding++
		var dst topology.NodeID
		if ni.RNG().Bernoulli(c.bench.SharingFraction) {
			// Coherence: the line lives in another core's cache.
			peers := c.layout.CPUs
			dst = peers[ni.RNG().Intn(len(peers))]
			if dst == ni.ID() {
				dst = c.layout.BankFor(c.bankRR)
			}
		} else {
			dst = c.layout.BankFor(ni.RNG().Intn(len(c.layout.L2s)))
		}
		c.bankRR++
		ni.Send(now, dst, network.SendOptions{
			Class:      flit.ClassCPU,
			AllowCS:    false, // CPU traffic is packet-switched (Section V-A2)
			ReplyFlits: tablei.PSDataFlits,
			SizeFlits:  1, // read request
		})
	}
}

// OnDeliver implements network.Endpoint: replies unblock the core; peer
// requests are answered like a cache-to-cache transfer.
func (c *CPUCore) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {
	if pkt.ReplyFlits > 0 {
		// Another core requests a line we own: reply directly.
		ni.Send(now, pkt.Src, network.SendOptions{
			Class: flit.ClassCPU,
			ReqID: pkt.ID,
		})
		return
	}
	if c.outstanding > 0 {
		c.outstanding--
	}
}

type warp struct {
	// outstanding counts pending loads; a warp issues while it has fewer
	// than warpMLP and blocks otherwise — the intra-warp memory-level
	// parallelism (pipelined loads) that lets the pool hide latency.
	outstanding int
	readyAt     sim.Cycle
}

// warpMLP is the pipelined loads one warp keeps in flight.
const warpMLP = 2

// GPUCore is the abstract 32-wide SIMD accelerator of Table II: a pool of
// warps that alternate compute and memory phases. The pool hides memory
// latency while ready warps remain; the number of available warps is the
// slack indicator the switching decision uses (Section V-A2).
type GPUCore struct {
	layout *Layout
	bench  workload.GPUBenchmark

	// Iterations counts completed memory operations — the throughput
	// metric GPU speedup is computed from.
	Iterations int64

	// ReadLatencySum / ReadCount measure average read round-trip time.
	ReadLatencySum int64
	ReadCount      int64

	// halted stops the accelerator issuing (System.Halt); replies to
	// loads already in flight still wake their warps.
	halted bool

	warps   []warp
	pending map[uint64]pendingRead
	hotSet  []topology.NodeID
	compute int
}

type pendingRead struct {
	warp     int
	issuedAt sim.Cycle
}

// NewGPUCore builds an accelerator running bench on the tile at id.
func NewGPUCore(layout *Layout, bench workload.GPUBenchmark, id topology.NodeID, memLatency int) *GPUCore {
	g := &GPUCore{
		layout:  layout,
		bench:   bench,
		warps:   make([]warp, bench.Warps),
		pending: make(map[uint64]pendingRead),
		compute: bench.DeriveComputeCycles(memLatency),
	}
	// The hot destination set is per-accelerator (address interleaving
	// gives different accelerators different dominant banks).
	for i := 0; i < bench.HotDests; i++ {
		g.hotSet = append(g.hotSet, layout.BankFor(int(id)+i*7))
	}
	return g
}

// availableWarps counts warps not blocked on memory.
func (g *GPUCore) availableWarps() int {
	n := 0
	for i := range g.warps {
		if g.warps[i].outstanding < warpMLP {
			n++
		}
	}
	return n
}

// Tick implements network.Endpoint: one memory operation may issue per
// cycle (the coalesced SIMT access of the 32-wide pipeline).
func (g *GPUCore) Tick(now sim.Cycle, ni *network.NI) {
	if g.halted {
		return
	}
	for i := range g.warps {
		w := &g.warps[i]
		if w.outstanding >= warpMLP || w.readyAt > now {
			continue
		}
		// Issue this warp's memory operation.
		var dst topology.NodeID
		if ni.RNG().Bernoulli(g.bench.HotDestFraction) {
			dst = g.hotSet[ni.RNG().Intn(len(g.hotSet))]
		} else {
			dst = g.layout.BankFor(ni.RNG().Intn(len(g.layout.L2s)))
		}
		slack := g.availableWarps() * g.bench.SlackPerWarp
		if ni.RNG().Bernoulli(g.bench.WriteFraction) {
			// Store: fire-and-forget data packet; the warp keeps computing.
			ni.Send(now, dst, network.SendOptions{
				Class:   flit.ClassGPU,
				AllowCS: true,
				Slack:   slack,
			})
			w.readyAt = now + sim.Cycle(g.computeTime(ni))
			g.Iterations++
		} else {
			// Load: 1-flit request, 5-flit reply; the warp blocks.
			pkt := ni.Send(now, dst, network.SendOptions{
				Class:      flit.ClassGPU,
				AllowCS:    true,
				Slack:      slack,
				ReplyFlits: tablei.PSDataFlits,
				SizeFlits:  1, // read request
			})
			pkt.SlackHint = slack
			g.pending[pkt.ID] = pendingRead{warp: i, issuedAt: now}
			w.outstanding++
			w.readyAt = now + sim.Cycle(g.computeTime(ni))
		}
		return // at most one issue per cycle
	}
}

func (g *GPUCore) computeTime(ni *network.NI) int {
	// +-50 % jitter keeps warps from phase-locking.
	half := g.compute / 2
	if half < 1 {
		return g.compute
	}
	return g.compute - half + ni.RNG().Intn(2*half)
}

// OnDeliver implements network.Endpoint: a reply wakes its warp.
func (g *GPUCore) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {
	pr, ok := g.pending[pkt.ReqID]
	if !ok {
		return
	}
	delete(g.pending, pkt.ReqID)
	g.ReadLatencySum += int64(now - pr.issuedAt)
	g.ReadCount++
	w := &g.warps[pr.warp]
	if w.outstanding > 0 {
		w.outstanding--
	}
	g.Iterations++
}
