package network

import (
	"fmt"
	"slices"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/invariant"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// This file is the network's contribution to the runtime invariant
// layer. The determinism digest is every router's and NI's one state walk
// (Router.Walk, NI.walk) with nothing attached; checkInvariants attaches
// a census to the same walk. All of it runs serially between cycles
// (after the executor's transfer phase and the manage step), when the
// two-phase contract guarantees in-flight credits are delivered, output
// latches toward connected ports are drained, and ni.staged is empty.

// InvariantViolations returns the stored violations (nil when checking
// is disabled or clean).
func (n *Network) InvariantViolations() []invariant.Violation {
	if n.checker == nil {
		return nil
	}
	return n.checker.Violations()
}

// InvariantCount returns the total violations detected, including ones
// beyond the storage cap.
func (n *Network) InvariantCount() int64 {
	if n.checker == nil {
		return 0
	}
	return n.checker.Count()
}

// RollingDigest returns the FNV-1a digest folded over every checked
// cycle's state digest (0 when checking is disabled). Identical seeded
// runs must produce identical rolling digests regardless of Workers.
func (n *Network) RollingDigest() uint64 {
	if n.checker == nil {
		return 0
	}
	return n.checker.Digest()
}

// StateDigest hashes the network's mutable state — clock, resize
// manager, online controller, every router pipeline and every NI; not
// the endpoints (generators, tile models, replayers) — into one 64-bit
// FNV-1a value. Two runs of the same seeded config diverge at the first
// cycle whose digests differ. Works with or without checking enabled.
func (n *Network) StateDigest() uint64 {
	w := flit.Walk{H: invariant.NewHasher()}
	n.hashManager(w.H)
	for _, r := range n.routers {
		r.Walk(&w)
	}
	for _, ni := range n.nis {
		ni.walk(&w)
	}
	return w.H.Sum()
}

// ComponentDigests splits StateDigest by component, for localising a
// divergence: it yields the between-cycle manager ("manager"), every
// router ("router 14") and every NI ("ni 3") with that component's own
// walk digest, in StateDigest's order. Two runs whose StateDigests
// differ at a cycle differ in at least one component there.
func (n *Network) ComponentDigests(yield func(name string, digest uint64)) {
	h := invariant.NewHasher()
	n.hashManager(h)
	yield("manager", h.Sum())
	for _, r := range n.routers {
		w := flit.Walk{H: invariant.NewHasher()}
		r.Walk(&w)
		yield(fmt.Sprintf("router %d", r.ID()), w.H.Sum())
	}
	for _, ni := range n.nis {
		w := flit.Walk{H: invariant.NewHasher()}
		ni.walk(&w)
		yield(fmt.Sprintf("ni %d", ni.id), w.H.Sum())
	}
}

// checkInvariants walks the network once for cycle now with the census
// and the checker attached — the walk's hash is the StateDigest folded
// into the rolling digest — then runs the checks that need the whole
// census.
func (n *Network) checkInvariants(now int64) {
	c := n.census
	clear(c.seen)
	clear(c.occ)
	at := topology.NodeID(0)
	report := func(kind, detail string) { n.checker.Report(now, int(at), kind, detail) }
	w := flit.Walk{H: invariant.NewHasher(), Report: report,
		Visit: func(loc flit.Loc, p *flit.Packet, f *flit.Flit) { c.visit(at, loc, p, f) }}
	n.hashManager(w.H)
	// Mask consistency and slot-table ownership are checked by the walks
	// themselves.
	for _, r := range n.routers {
		at = r.ID()
		r.Walk(&w)
	}
	// Credits toward a neighbour need its walk done too.
	for _, r := range n.routers {
		at = r.ID()
		r.CheckCredits(c.occupancy, report)
	}
	// The NI side of the local input's credit loop: injection credits plus
	// the local input's packet-switched occupancy must equal the depth
	// (ni.staged is always drained between cycles).
	depth := n.cfg.Router.BufDepth
	for _, ni := range n.nis {
		at = ni.id
		ni.walk(&w)
		for v, cr := range ni.credits {
			if occ := c.occupancy(ni.id, topology.Local, v); cr+occ != depth {
				report("credit", fmt.Sprintf("local vc %d: NI credits %d + occupancy %d != depth %d", v, cr, occ, depth))
			}
		}
	}
	// Network-wide flit conservation: the set of distinct data packets
	// with at least one flit somewhere in the network must exactly match
	// the sent-but-not-ejected count. A partially reassembled packet
	// always still has >= 1 flit in flight, so counting distinct IDs is
	// exact.
	if got, want := int64(len(c.seen)), n.InFlight(); got != want {
		n.checker.Report(now, -1, "conservation",
			fmt.Sprintf("%d distinct data packets in flight but sent-ejected = %d", got, want))
	}
	n.checker.Roll(w.H.Sum())
}

// census is what checkInvariants collects from the walk's visits; its
// storage is reused across checked cycles.
type census struct {
	mesh topology.Mesh
	vcs  int
	// seen holds the data packets with a flit (or the whole packet)
	// anywhere in the network. Configuration messages are excluded:
	// conservation is stated over data packets (setup/ack/teardown
	// messages are consumed by the protocol, not ejected).
	seen map[uint64]struct{}
	// occ[(router*NumPorts+port)*vcs+vc] is the occupancy a router input
	// VC's upstream credits must account for (see Router.CheckCredits).
	occ []int
}

// visit records one occupied slot of tile at's router or NI.
func (c *census) visit(at topology.NodeID, loc flit.Loc, p *flit.Packet, f *flit.Flit) {
	if p.Kind == flit.DataPacket {
		c.seen[p.ID] = struct{}{}
	}
	switch loc.Where {
	case flit.VCQueue:
		c.add(at, loc.Port, loc.VC)
	case flit.InLatch, flit.LinkReg:
		if !f.CS {
			c.add(at, loc.Port, f.VC)
		}
	case flit.STReg, flit.OutLatch:
		// Bound for the downstream input VC whose credit it already holds
		// (the Local output has no downstream router: no neighbour).
		if down, ok := c.mesh.Neighbor(at, loc.Port); ok && !f.CS {
			c.add(down, loc.Port.Opposite(), f.VC)
		}
	}
}

func (c *census) add(id topology.NodeID, p topology.Port, v int) {
	if v >= 0 && v < c.vcs {
		c.occ[c.index(id, p, v)]++
	}
}

// occupancy is the counted occupancy of input VC v of port p of router
// id.
func (c *census) occupancy(id topology.NodeID, p topology.Port, v int) int {
	return c.occ[c.index(id, p, v)]
}

func (c *census) index(id topology.NodeID, p topology.Port, v int) int {
	return (int(id)*int(topology.NumPorts)+int(p))*c.vcs + v
}

// hashManager folds the between-cycle manager's state into h: the clock,
// the slot count in force, the sizing epoch, any pending reset, the
// resizer and the online controller.
func (n *Network) hashManager(h *invariant.Hasher) {
	h.Int64(int64(n.clock.Now()))
	h.Int(n.slotActive)
	h.Int(n.epoch)
	h.Bool(n.csFrozen)
	h.Int64(int64(n.resizeAt))
	h.Int(n.resizeTo)
	n.resizer.HashState(h)
	// Each baseline flow as its packed (src, dst) key and flit total;
	// the table's (Src, Dst) order is ascending key order. Pinned by
	// golden-digest.json.
	h.Int(len(n.adaptPrev))
	for _, f := range n.adaptPrev {
		h.Uint64(uint64(uint32(f.Src))<<32 | uint64(uint32(f.Dst)))
		h.Int64(f.Flits)
	}
	h.Int(len(n.adaptPins))
	for _, p := range n.adaptPins {
		h.Int(p.Src)
		h.Int(p.Dst)
	}
	h.Int(n.adaptRepins)
}

// walk is the NI's one state walk: it folds the NI's complete mutable
// state into w.H and visits every packet and flit it holds — the
// packet-switched queue, the in-progress injection streams, the staged
// flit, waiting circuit-switched jobs and the receive buffer.
func (ni *NI) walk(w *flit.Walk) {
	h := w.H
	h.Int(ni.psQ.len())
	for i := 0; i < ni.psQ.len(); i++ {
		w.Packet(flit.Loc{Where: flit.NI}, ni.psQ.at(i))
	}
	h.Int(len(ni.cur))
	for _, f := range ni.cur {
		w.Flit(flit.Loc{Where: flit.NI}, f)
	}
	h.Int(ni.curIdx)
	h.Int(ni.curVC)
	for _, c := range ni.credits {
		h.Int(c)
	}
	for _, b := range ni.vcBusy {
		h.Bool(b)
	}
	w.Flit(flit.Loc{Where: flit.NI}, ni.staged)

	h.Int(len(ni.circuitList))
	for _, c := range ni.circuitList {
		h.Int(int(c.dst))
		h.Int(c.dur)
		h.Int(c.epoch)
		h.Int(c.hops)
		h.Int64(int64(c.lastUsed))
		h.Int(c.overflow)
		h.Int(len(c.blocks))
		for _, b := range c.blocks {
			h.Int(b.baseSlot)
			h.Int(b.pending)
		}
	}
	h.Int(len(ni.csJobs))
	for _, j := range ni.csJobs {
		w.Packet(flit.Loc{Where: flit.NI}, j.pkt)
		h.Int(j.slot)
		h.Byte(byte(j.shareIn))
		h.Bool(j.hitchhike)
		h.Int(int(j.circuitDst))
	}
	h.Int(len(ni.csCur))
	for _, f := range ni.csCur {
		w.Flit(flit.Loc{Where: flit.NI}, f)
	}
	h.Int(ni.csIdx)

	hashSorted(h, ni.pending, func(st setupState) {
		h.Int(int(st.dst))
		h.Int(st.attempts)
	})
	hashSorted(h, ni.hitchQueued, func(v int) { h.Int(v) })
	hashSorted(h, ni.backoff, func(c sim.Cycle) { h.Int64(int64(c)) })
	hashSorted(h, ni.freq, func(v int) { h.Int(v) })
	h.Int64(int64(ni.freqResetAt))
	h.Bool(ni.pins != nil) // nil: no pinning policy; empty: policy active, nothing pinned here
	hashSorted(h, ni.pins, h.Bool)
	if ni.dlt != nil {
		ni.dlt.HashState(h)
	}
	h.Int64(ni.dltAccesses)
	h.Int(len(ni.dltEventBuf))
	for _, e := range ni.dltEventBuf {
		h.Bool(e.Add)
		h.Int(int(e.Dst))
		h.Int(e.Slot)
		h.Int(e.Dur)
		h.Byte(byte(e.In))
	}

	h.Int(len(ni.rx))
	for _, rf := range ni.rx {
		w.Flit(flit.Loc{Where: flit.NI}, rf.f)
		h.Int64(int64(rf.at))
	}
	hashSorted(h, ni.rxCount, func(n int) { h.Int(n) })

	h.Int(len(ni.setupResults))
	for _, ok := range ni.setupResults {
		h.Bool(ok)
	}
	h.Int64(ni.TotalSent)
	h.Int64(ni.TotalEjected)
	h.Uint64(ni.seq)
	s0, s1 := ni.rng.State()
	h.Uint64(s0)
	h.Uint64(s1)
}

// hashSorted folds a map in sorted-key order, so the hash is independent
// of Go's randomized map iteration. Keys are never negative: folding them
// as uint64 is Hasher.Int's encoding.
func hashSorted[K ~int | ~uint64, V any](h *invariant.Hasher, m map[K]V, hashVal func(V)) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h.Int(len(keys))
	for _, k := range keys {
		h.Uint64(uint64(k))
		hashVal(m[k])
	}
}
