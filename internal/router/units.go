package router

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
)

// vcState is the per-input-VC pipeline state machine.
type vcState uint8

const (
	// vcIdle: no packet owns the VC.
	vcIdle vcState = iota
	// vcRouting: head flit at the front awaiting route computation.
	vcRouting
	// vcVCAlloc: route computed, waiting for an output VC.
	vcVCAlloc
	// vcActive: output VC held; flits compete for the switch.
	vcActive
)

// numVCStates sizes per-state tables.
const numVCStates = int(vcActive) + 1

// MaxVCs is the largest Config.VCs the router supports: its occupancy
// masks keep one bit per input port x VC in a 64-bit word.
const MaxVCs = 64 / int(topology.NumPorts)

// inputVC is one virtual channel of one input port.
type inputVC struct {
	q     []*flit.Flit
	state vcState
	// idx is the VC's position in Router.vcs and its bit in the occupancy
	// masks: port*VCs + vc, the order the allocators' round-robin
	// pointers walk.
	idx  uint8
	port topology.Port
	// ready is the earliest cycle the current pipeline stage may execute,
	// enforcing the one-stage-per-cycle timing.
	ready sim.Cycle

	// route is the output port computed for the head packet.
	route topology.Port

	// Grant state while vcActive.
	outPort topology.Port
	outVC   int
}

func (v *inputVC) empty() bool { return len(v.q) == 0 }

func (v *inputVC) front() *flit.Flit {
	if len(v.q) == 0 {
		return nil
	}
	return v.q[0]
}

// push, pop and setState are the only writers of a VC's queue and state:
// they keep the router's occupancy masks in step (see Router.stateMask).

func (r *Router) push(vc *inputVC, f *flit.Flit) {
	vc.q = append(vc.q, f)
	r.occupied |= 1 << vc.idx
}

func (r *Router) pop(vc *inputVC) *flit.Flit {
	f := vc.q[0]
	// Shift rather than reslice so the backing array doesn't grow without
	// bound over a long simulation.
	copy(vc.q, vc.q[1:])
	vc.q[len(vc.q)-1] = nil
	vc.q = vc.q[:len(vc.q)-1]
	if len(vc.q) == 0 {
		r.occupied &^= 1 << vc.idx
	}
	return f
}

func (r *Router) setState(vc *inputVC, s vcState) {
	r.stateMask[vc.state] &^= 1 << vc.idx
	r.stateMask[s] |= 1 << vc.idx
	vc.state = s
}

// rotr rotates the low n bits of m right by k (0 <= k < n): bit j of the
// result is bit (k+j) mod n of m, so ascending set bits of the result
// visit m in round-robin order starting at position k.
func rotr(m uint64, k, n int) uint64 {
	return (m>>k | m<<(n-k)) & (1<<n - 1)
}

// inputUnit is one input port: its VC buffers plus the link-side registers.
type inputUnit struct {
	vcs []inputVC

	// latch receives the flit delivered by the link this cycle (at most
	// one flit per port per cycle).
	latch *flit.Flit
	// linkReg models the one-cycle link pipeline: a flit written to the
	// upstream output latch at cycle T sits here during T+1 and lands in
	// latch for processing at T+2. It doubles as the paper's one-bit
	// circuit-switched advance signal: the flit that will arrive next
	// cycle is visible here now.
	linkReg *flit.Flit

	// rrVC is the round-robin pointer for switch-allocation stage one.
	rrVC int
}

// outputUnit is one output port: downstream VC bookkeeping, the switch
// traversal register and the output latch.
type outputUnit struct {
	// credits[v] is the free buffer space in the downstream input VC v.
	credits []int
	// vcFree[v] reports whether downstream VC v may be allocated to a new
	// packet (freed when the previous packet's tail flit is sent).
	vcFree []bool

	// stReg holds the switch-allocation winner; it traverses the crossbar
	// the cycle after the grant. A circuit-switched flit arriving in that
	// cycle has crossbar priority, in which case the winner stalls here.
	stReg *flit.Flit
	// latch is the post-crossbar output register drained by the link.
	latch *flit.Flit

	// rrVA is the round-robin requester pointer for VC allocation.
	rrVA int
	// rrVC is the round-robin pointer over downstream VCs for allocation.
	rrVC int
	// rrIn is the round-robin input pointer for switch-allocation stage two.
	rrIn int

	// connected reports whether the port leads anywhere (edge routers
	// leave outward ports unconnected; Local is always connected).
	connected bool
}

// creditMsg is a credit returned upstream for (port, vc).
type creditMsg struct {
	port topology.Port
	vc   int
}

// CreditSink receives credits the router returns for its local input port;
// the network interface implements it to track injection space.
type CreditSink interface {
	ReturnCredit(vc int)
}
