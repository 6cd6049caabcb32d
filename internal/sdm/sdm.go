// Package sdm models the space-division-multiplexed hybrid-switched NoC of
// Jerger et al. ("Circuit-Switched Coherence", NOCS 2008), the baseline the
// paper compares against in Section IV (Hybrid-SDM-VC4).
//
// In an SDM network each link is physically partitioned into P planes of
// width/P wires. A circuit owns one plane end-to-end; packet-switched
// packets use one plane per link for their whole wormhole traversal. The
// two effects the paper leans on both emerge from this structure:
//
//   - Serialization: a 16-byte flit on a quarter-width plane takes P
//     cycles per link, so each packet occupies buffers and planes P times
//     longer, and saturation arrives earlier at high injection rates.
//   - Limited circuit capacity: at most P-1 planes per link can be given
//     to circuits (one is kept for packet-switched traffic), so the number
//     of circuit-switched paths cannot scale with network size.
//
// The model intentionally simplifies the control plane: circuits are
// granted by a centralised allocator that walks the X-Y path (the paper's
// own SDM evaluation holds circuit setup out of the critical path), while
// the datapath — buffering, VC allocation, plane occupancy, serialization,
// circuit bypass — is simulated cycle by cycle. DESIGN.md records this
// substitution.
package sdm

import (
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/power"
	"tdmnoc/internal/routing"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/internal/topology"
)

// PacketFlits is the data packet length (Table I's 5 flits).
const PacketFlits = 5

// DefaultPlanes is the link partition count of the evaluated baseline:
// 4-byte planes of the 16-byte channel.
const DefaultPlanes = 4

// Config sizes the SDM network.
type Config struct {
	Width, Height int
	// Planes is the number of link partitions (DefaultPlanes in the
	// evaluation). Circuits may own all but one plane of a link; that
	// one stays packet-switched.
	Planes int
	// VCs and BufDepth match the Table-I router (4 and 5).
	VCs, BufDepth int
	// SetupThreshold messages to one destination trigger a circuit request.
	SetupThreshold int
	// MaxCircuits bounds circuits per source.
	MaxCircuits int
	// GatedPlanes power-gates the highest-numbered planes of every link:
	// gated planes carry no traffic (circuit or packet-switched) and
	// their drivers leak no static power. At least two planes must stay
	// on — one packet-switched escape plane plus one circuit-capable
	// plane — and circuits are capped at one fewer than the ungated
	// plane count. The SDM-gating adaptive
	// policy sets this from observed utilization to trade peak circuit
	// capacity for link leakage at low load.
	GatedPlanes int
	Seed        uint64
}

// DefaultConfig returns the Hybrid-SDM-VC4 configuration.
func DefaultConfig(width, height int) Config {
	return Config{
		Width: width, Height: height,
		Planes: DefaultPlanes, VCs: 4, BufDepth: 5,
		SetupThreshold: 4,
		MaxCircuits:    2,
		Seed:           1,
	}
}

func (c Config) validate() {
	if c.Width <= 0 || c.Height <= 0 || c.Planes <= 0 || c.VCs <= 0 || c.BufDepth <= 0 {
		panic("sdm: invalid configuration")
	}
	if c.GatedPlanes < 0 || c.Planes-c.GatedPlanes < 2 {
		panic("sdm: at least two planes must stay on (one packet-switched, one for circuits)")
	}
}

// activePlanes is the per-link plane count after power gating.
func (c Config) activePlanes() int { return c.Planes - c.GatedPlanes }

// circuit is an end-to-end plane reservation.
type circuit struct {
	id   int
	src  topology.NodeID
	dst  topology.NodeID
	path []topology.NodeID
	// plane[i] is the plane owned on the link path[i] -> path[i+1].
	plane []int
	used  int64
	// Source-side stream: flits waiting to enter the circuit and the next
	// cycle one may (a plane carries one flit per Planes cycles).
	q    flitQ
	next int64
}

type vcState uint8

const (
	vcIdle vcState = iota
	vcRouting
	vcVCAlloc
	vcActive
)

// flitQ is a FIFO of flits on a ring with a head index: pop neither
// shifts nor abandons the backing array, and push doubles it only when
// the ring is full, so a queue that has reached its working size never
// allocates again.
type flitQ struct {
	buf     []*flit.Flit
	head, n int
}

func (q *flitQ) at(i int) *flit.Flit {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return q.buf[i]
}

func (q *flitQ) push(f *flit.Flit) {
	if q.n == len(q.buf) {
		grown := make([]*flit.Flit, max(4, 2*q.n))
		for i := range q.n {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = f
	q.n++
}

func (q *flitQ) pop() *flit.Flit {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return f
}

type inputVC struct {
	q     flitQ
	state vcState
	ready int64
	route topology.Port
	outVC int
	plane int // plane held on the output link by the current packet
	hasPl bool
}

type outPlane struct {
	busyUntil int64
	circuit   int // -1 when not owned by a circuit
}

type outPort struct {
	planes  []outPlane
	credits []int
	vcFree  []bool
	rrVC    int
}

type sdmRouter struct {
	id topology.NodeID
	// in holds the input VCs port-major: VC v of port p is in[p*VCs+v],
	// the order the switch allocator's round-robin pointer rr walks.
	in  []inputVC
	out [topology.NumPorts]outPort
	rr  int
}

type arrival struct {
	router topology.NodeID
	port   topology.Port
	f      *flit.Flit
	cs     bool
}

// Generator produces synthetic traffic for one source; send=false skips
// the cycle.
type Generator func(now int64, src topology.NodeID, rng *sim.RNG) (dst topology.NodeID, send bool)

type srcState struct {
	rng  *sim.RNG
	psQ  flitQ // flit-level injection queue
	freq map[topology.NodeID]int
	// circuits are the circuits this node sources, in creation order —
	// the order their streams inject in, which is simulation state.
	circuits []*circuit
	seq      uint64
}

// Network is one SDM hybrid-switched NoC simulation instance.
type Network struct {
	cfg  Config
	mesh topology.Mesh
	now  int64

	routers []*sdmRouter
	src     []*srcState
	gen     Generator
	genOn   bool

	circuits   []*circuit
	circuitOf  map[topology.NodeID]map[topology.NodeID]*circuit // src -> dst -> circuit
	pktCircuit map[uint64]*circuit
	rxCount    map[uint64]int
	// pool recycles packets (with their flit storage) from tail
	// ejection back to generate; see flit.Pool for the ownership rule.
	pool *flit.Pool

	Stats  stats.Collector
	meters []power.RouterMeter
	// meteredFrom is the cycle the meters were last reset at; the
	// per-cycle static terms (Cycles, BufSlotCycles) are constant, so
	// Energy integrates them from here instead of step() touching every
	// meter every cycle.
	meteredFrom int64

	// inbox[at%len(inbox)] collects the arrivals due at cycle at. Every
	// delay scheduled is 1, 2 or Planes cycles, so max(2, Planes)+1
	// buckets keep distinct pending cycles apart, and deliver empties a
	// bucket before its slot comes round again.
	inbox [][]arrival

	sent, ejected int64
}

// New builds an SDM network with the given traffic generator.
func New(cfg Config, gen Generator) *Network {
	cfg.validate()
	n := &Network{
		cfg:        cfg,
		mesh:       topology.NewMesh(cfg.Width, cfg.Height),
		gen:        gen,
		genOn:      gen != nil,
		circuitOf:  map[topology.NodeID]map[topology.NodeID]*circuit{},
		pktCircuit: map[uint64]*circuit{},
		rxCount:    map[uint64]int{},
		pool:       flit.NewPool(nil, cfg.Width*cfg.Height),
		inbox:      make([][]arrival, max(2, cfg.Planes)+1),
	}
	master := sim.NewRNG(cfg.Seed)
	nodes := n.mesh.Nodes()
	n.meters = make([]power.RouterMeter, nodes)
	for id := 0; id < nodes; id++ {
		r := &sdmRouter{id: topology.NodeID(id), in: make([]inputVC, int(topology.NumPorts)*cfg.VCs)}
		for i := range r.in {
			r.in[i].q.buf = make([]*flit.Flit, cfg.BufDepth)
		}
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			op := &r.out[p]
			// Gated planes are simply absent: no allocator, arbiter or
			// circuit walk can pick what is not in the array.
			op.planes = make([]outPlane, cfg.activePlanes())
			for k := range op.planes {
				op.planes[k].circuit = -1
			}
			op.credits = make([]int, cfg.VCs)
			op.vcFree = make([]bool, cfg.VCs)
			for v := 0; v < cfg.VCs; v++ {
				op.credits[v] = cfg.BufDepth
				op.vcFree[v] = true
			}
		}
		n.routers = append(n.routers, r)
		n.src = append(n.src, &srcState{rng: master.Fork(), freq: map[topology.NodeID]int{}})
		n.meters[id].LinkChannels = n.linkChannels(topology.NodeID(id))
	}
	return n
}

// linkChannels counts the static link-driver channels a router leaks
// through: one per ungated plane on the ejection channel and on each
// outgoing mesh link. Plane gating shrinks this, which is the entire
// energy benefit the SDM-gating policy trades circuit capacity for.
func (n *Network) linkChannels(id topology.NodeID) int64 {
	links := int64(1) // local ejection channel
	for _, p := range []topology.Port{topology.North, topology.East, topology.South, topology.West} {
		if _, ok := n.mesh.Neighbor(id, p); ok {
			links++
		}
	}
	return links * int64(n.cfg.activePlanes())
}

// Mesh returns the topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// StopGeneration halts the traffic generator (for draining).
func (n *Network) StopGeneration() { n.genOn = false }

// InFlight reports packets sent but not yet delivered.
func (n *Network) InFlight() int64 { return n.sent - n.ejected }

// Circuits reports how many circuits are currently established.
func (n *Network) Circuits() int { return len(n.circuits) }

// EnableStats begins measurement.
func (n *Network) EnableStats() {
	n.Stats.Enabled = true
	n.meteredFrom = n.now
	for i := range n.meters {
		n.meters[i].Reset()
		// Re-count the static link channels lost in the reset.
		n.meters[i].LinkChannels = n.linkChannels(topology.NodeID(i))
	}
}

// Energy reports the aggregate energy breakdown.
func (n *Network) Energy() power.Breakdown {
	var out power.Breakdown
	cycles := n.now - n.meteredFrom
	for i := range n.meters {
		m := n.meters[i]
		m.Cycles = cycles
		m.BufSlotCycles = cycles * int64(n.cfg.VCs*n.cfg.BufDepth*int(topology.NumPorts))
		out = out.Add(m.Report())
	}
	return out
}

// Run advances the network by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.step()
	}
}

// Drain runs until all in-flight packets are delivered or limit cycles
// pass.
func (n *Network) Drain(limit int) bool {
	for i := 0; i < limit; i++ {
		if n.InFlight() == 0 {
			return true
		}
		n.step()
	}
	return n.InFlight() == 0
}

func (n *Network) step() {
	n.deliver()
	n.generate()
	n.injectAll()
	for _, r := range n.routers {
		n.routerCycle(r)
	}
	n.now++
}

// deliver moves flits that finished their link serialization into router
// buffers (packet-switched) or forwards/ejects them (circuit-switched).
func (n *Network) deliver() {
	bucket := &n.inbox[n.now%int64(len(n.inbox))]
	for _, a := range *bucket {
		if a.cs {
			n.deliverCS(a)
			continue
		}
		n.buffer(a.router, &n.routers[a.router].in[int(a.port)*n.cfg.VCs+a.f.VC], a.f)
	}
	clear(*bucket) // drop the flit references
	*bucket = (*bucket)[:0]
}

// buffer writes f into input VC vc of router id; a head flit landing in
// an idle, empty VC starts route computation this cycle.
func (n *Network) buffer(id topology.NodeID, vc *inputVC, f *flit.Flit) {
	vc.q.push(f)
	n.meters[id].BufWrites++
	if vc.q.n == 1 && vc.state == vcIdle && f.IsHead() {
		vc.state = vcRouting
		vc.ready = n.now
	}
}

// deliverCS advances a circuit-switched flit: bypass the router in one
// cycle and serialize over the next link's plane, or eject at the
// destination.
func (n *Network) deliverCS(a arrival) {
	c := n.pktCircuit[a.f.Pkt.ID]
	if c == nil || a.router == c.dst {
		n.eject(a.router, a.f)
		return
	}
	// Find this router on the path and forward along the circuit.
	for i, node := range c.path {
		if node != a.router {
			continue
		}
		n.meters[a.router].CSLatches++
		n.meters[a.router].XbarFlits++
		n.meters[a.router].LinkFlits++
		next := c.path[i+1]
		port := routing.XY(n.mesh, node, next).Opposite()
		// Phits pipeline hop to hop: the flit front advances at one
		// router plus one link cycle per hop; the plane's 1/Planes
		// bandwidth is charged at injection spacing, not per hop.
		n.schedule(n.now+2, arrival{router: next, port: port, f: a.f, cs: true})
		return
	}
	// Not on the path: treat as delivered (cannot happen with a
	// consistent allocator).
	n.eject(a.router, a.f)
}

func (n *Network) schedule(at int64, a arrival) {
	bucket := &n.inbox[at%int64(len(n.inbox))]
	*bucket = append(*bucket, a)
}

// eject counts a flit at its destination and completes packets.
func (n *Network) eject(id topology.NodeID, f *flit.Flit) {
	pkt := f.Pkt
	cnt := n.rxCount[pkt.ID] + 1
	if cnt < pkt.Flits {
		n.rxCount[pkt.ID] = cnt
		return
	}
	delete(n.rxCount, pkt.ID)
	delete(n.pktCircuit, pkt.ID)
	pkt.EjectedAt = n.now
	n.ejected++
	n.Stats.RecordEjection(pkt)
	// Flits arrive in order on one path and each is dropped from its
	// bucket or queue as it is counted, so the last one counted proves
	// nothing can reach the packet any more.
	n.pool.Put(pkt)
}

// PacketPool reports how many packets the pool has ever allocated and
// how many of those are free right now.
func (n *Network) PacketPool() (allocated, free int) {
	return n.pool.Allocated(), n.pool.Free()
}

// generate asks the traffic generator for new packets and makes the
// switching decision: packets to a destination with an established
// circuit stream over it; everything else is packet-switched, with
// frequent pairs requesting circuits.
func (n *Network) generate() {
	if !n.genOn {
		return
	}
	for id := 0; id < n.mesh.Nodes(); id++ {
		src := n.src[id]
		dst, ok := n.gen(n.now, topology.NodeID(id), src.rng)
		if !ok || dst == topology.NodeID(id) {
			continue
		}
		src.seq++
		pkt := n.pool.Get()
		pkt.ID = uint64(id)<<40 | src.seq
		pkt.Kind = flit.DataPacket
		pkt.Src = topology.NodeID(id)
		pkt.Dst = dst
		pkt.Class = flit.ClassOther
		pkt.Flits = PacketFlits
		pkt.CreatedAt = n.now
		n.sent++
		q := &src.psQ
		if c := n.circuitFor(topology.NodeID(id), dst); c != nil {
			pkt.Switching = flit.CircuitSwitched
			n.pktCircuit[pkt.ID] = c
			q = &c.q
			c.used = n.now
			n.Stats.OwnCircuitSends++
		} else {
			n.noteFrequency(topology.NodeID(id), dst)
		}
		for _, f := range pkt.ExplodeInto() {
			q.push(f)
		}
	}
}

func (n *Network) circuitFor(src, dst topology.NodeID) *circuit {
	if m := n.circuitOf[src]; m != nil {
		return m[dst]
	}
	return nil
}

// noteFrequency requests a circuit once a pair communicates often enough,
// mirroring the TDM policy so the Fig. 4 comparison is apples-to-apples.
func (n *Network) noteFrequency(src, dst topology.NodeID) {
	s := n.src[src]
	s.freq[dst]++
	if s.freq[dst] < n.cfg.SetupThreshold {
		return
	}
	s.freq[dst] = 0
	if n.circuitFor(src, dst) != nil {
		return
	}
	if m := n.circuitOf[src]; m != nil && len(m) >= n.cfg.MaxCircuits {
		return
	}
	n.tryReserveCircuit(src, dst)
}

// tryReserveCircuit walks the X-Y path and claims one free plane per link
// (the centralised-allocator simplification). It fails when any link has
// already given all but one of its ungated planes to circuits — the SDM
// scaling limit.
func (n *Network) tryReserveCircuit(src, dst topology.NodeID) bool {
	path := routing.PathXY(n.mesh, src, dst)
	planes := make([]int, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		port := routing.XY(n.mesh, path[i], path[i+1])
		op := &n.routers[path[i]].out[port]
		picked := -1
		owned := 0
		for k := range op.planes {
			if op.planes[k].circuit >= 0 {
				owned++
			} else if picked < 0 {
				picked = k
			}
		}
		// One ungated plane always remains packet-switched.
		if picked < 0 || owned >= len(op.planes)-1 {
			n.Stats.SetupsFailed++
			return false
		}
		planes[i] = picked
	}
	c := &circuit{id: len(n.circuits), src: src, dst: dst, path: path, plane: planes, used: n.now}
	for i := 0; i+1 < len(path); i++ {
		port := routing.XY(n.mesh, path[i], path[i+1])
		n.routers[path[i]].out[port].planes[planes[i]].circuit = c.id
	}
	n.circuits = append(n.circuits, c)
	n.src[src].circuits = append(n.src[src].circuits, c)
	if n.circuitOf[src] == nil {
		n.circuitOf[src] = map[topology.NodeID]*circuit{}
	}
	n.circuitOf[src][dst] = c
	n.Stats.SetupsOK++
	n.Stats.CircuitsRegistered++
	return true
}

// injectAll moves source-queue flits into the network: circuit-switched
// streams are paced at one flit per Planes cycles (the plane is
// width/Planes wires); packet-switched flits enter the local input port
// under credit flow control.
func (n *Network) injectAll() {
	for id := 0; id < n.mesh.Nodes(); id++ {
		s := n.src[id]
		// Circuit streams (each circuit's plane is independent).
		for _, c := range s.circuits {
			if c.q.n == 0 || n.now < c.next {
				continue
			}
			f := c.q.pop()
			c.next = n.now + int64(n.cfg.Planes)
			if f.IsHead() && f.Pkt.InjectedAt == 0 {
				f.Pkt.InjectedAt = n.now
				n.Stats.RecordInjection(f.Pkt)
			}
			// First hop: source NI to the first on-path forwarding step.
			n.schedule(n.now+1, arrival{router: c.path[0], port: topology.Local, f: f, cs: true})
		}
		// Packet-switched injection: one flit per cycle onto the local
		// port, credit permitting.
		if s.psQ.n == 0 {
			continue
		}
		f := s.psQ.at(0)
		local := n.routers[id].in[int(topology.Local)*n.cfg.VCs:][:n.cfg.VCs]
		if f.IsHead() {
			// Pick a local input VC with a free slot.
			picked := -1
			for v := range local {
				vc := &local[v]
				if vc.q.n < n.cfg.BufDepth && (vc.state == vcIdle || (vc.q.n > 0 && vc.q.at(vc.q.n-1).IsTail())) {
					picked = v
					break
				}
			}
			if picked < 0 {
				continue
			}
			// The packet's flits sit contiguously at the queue head.
			for i := 0; i < s.psQ.n && s.psQ.at(i).Pkt == f.Pkt; i++ {
				s.psQ.at(i).VC = picked
			}
			if f.Pkt.InjectedAt == 0 {
				f.Pkt.InjectedAt = n.now
				n.Stats.RecordInjection(f.Pkt)
			}
		} else if local[f.VC].q.n >= n.cfg.BufDepth {
			continue
		}
		n.buffer(topology.NodeID(id), &local[f.VC], s.psQ.pop())
	}
}

// routerCycle runs RC, VA and SA for one router. Switch traversal plus
// link serialization are folded into the scheduled arrival delay
// (1 + Planes cycles), and each transmission occupies the packet's plane
// for Planes cycles.
//
// The RC/VA sweep doubles as the switch allocator's census: want[o]
// counts the VCs that can request output o this cycle (active, ready,
// holding a flit). The census is exact — a VC the sweep itself promotes
// becomes ready next cycle, and a grant only ever changes a VC routed to
// the output being served — so SA runs only for outputs somebody wants
// and leaves an output once its last candidate has been probed. What it
// skips are probes of VCs that could not have requested that output;
// those never touched state, and rr moves only on a grant.
func (n *Network) routerCycle(r *sdmRouter) {
	m := &n.meters[r.id]
	var want [topology.NumPorts]int
	requests := 0
	for i := range r.in {
		vc := &r.in[i]
		if vc.ready > n.now || vc.q.n == 0 {
			continue
		}
		switch vc.state {
		case vcRouting:
			if !vc.q.at(0).IsHead() {
				continue
			}
			vc.route = routing.XY(n.mesh, r.id, vc.q.at(0).Pkt.Dst)
			vc.state = vcVCAlloc
			vc.ready = n.now + 1
		case vcVCAlloc:
			op := &r.out[vc.route]
			got := -1
			if vc.route == topology.Local {
				got = 0 // ejection needs no downstream VC
			} else {
				for j := 0; j < n.cfg.VCs; j++ {
					k := (op.rrVC + j) % n.cfg.VCs
					if op.vcFree[k] {
						got = k
						break
					}
				}
			}
			if got < 0 {
				continue
			}
			if vc.route != topology.Local {
				op.vcFree[got] = false
				op.rrVC = (got + 1) % n.cfg.VCs
			}
			m.VCArbs++
			vc.outVC = got
			vc.hasPl = false
			vc.state = vcActive
			vc.ready = n.now + 1
		case vcActive:
			want[vc.route]++
			requests++
		}
	}
	if requests == 0 {
		return
	}
	// SA: one grant per output port per cycle, round-robin over inputs.
	for o := topology.Port(0); o < topology.NumPorts; o++ {
		op := &r.out[o]
		for i := 0; want[o] > 0; i++ {
			idx := r.rr + i
			if idx >= len(r.in) {
				idx -= len(r.in)
			}
			vc := &r.in[idx]
			if vc.state != vcActive || vc.ready > n.now || vc.q.n == 0 || vc.route != o {
				continue
			}
			want[o]--
			// Plane acquisition: the packet holds one plane on this link
			// from head to tail (wormhole over a single plane).
			if !vc.hasPl {
				picked := -1
				for k := range op.planes {
					if op.planes[k].circuit < 0 && op.planes[k].busyUntil <= n.now {
						picked = k
						break
					}
				}
				if picked < 0 {
					continue
				}
				vc.plane = picked
				vc.hasPl = true
			}
			if op.planes[vc.plane].busyUntil > n.now {
				continue
			}
			if o != topology.Local && op.credits[vc.outVC] <= 0 {
				continue
			}
			// Grant: serialize the flit over the plane.
			f := vc.q.pop()
			m.BufReads++
			m.SWArbs++
			m.XbarFlits++
			m.LinkFlits++
			op.planes[vc.plane].busyUntil = n.now + int64(n.cfg.Planes)
			if p := topology.Port(idx / n.cfg.VCs); p != topology.Local {
				// Return this input VC's credit to the upstream router.
				up, _ := n.mesh.Neighbor(r.id, p)
				n.routers[up].out[p.Opposite()].credits[idx%n.cfg.VCs]++
			}
			f.VC = vc.outVC
			if o == topology.Local {
				// The flit's phits drain onto the ejection port over
				// Planes cycles; its last phit arrives then.
				n.schedule(n.now+int64(n.cfg.Planes), arrival{router: r.id, port: topology.Local, f: f, cs: true})
			} else {
				op.credits[vc.outVC]--
				next, _ := n.mesh.Neighbor(r.id, o)
				// Phit-pipelined traversal: the flit front reaches the
				// neighbour after switch traversal plus one link cycle;
				// the plane stays busy Planes cycles (1/Planes bandwidth).
				n.schedule(n.now+2, arrival{router: next, port: o.Opposite(), f: f})
			}
			if f.IsTail() {
				if o != topology.Local {
					op.vcFree[vc.outVC] = true
				}
				vc.state = vcIdle
				vc.hasPl = false
				if vc.q.n > 0 && vc.q.at(0).IsHead() {
					vc.state = vcRouting
					vc.ready = n.now + 1
				}
			}
			if r.rr = idx + 1; r.rr == len(r.in) {
				r.rr = 0
			}
			break
		}
	}
}

// Validate reports the first input VC holding more flits than its buffer
// depth — a credit-protocol violation no well-formed run can produce.
func (n *Network) Validate() error {
	for id, r := range n.routers {
		for i := range r.in {
			if r.in[i].q.n > n.cfg.BufDepth {
				return fmt.Errorf("router %d in[%v] vc %d overflow: %d flits",
					id, topology.Port(i/n.cfg.VCs), i%n.cfg.VCs, r.in[i].q.n)
			}
		}
	}
	return nil
}
