package router

import (
	"fmt"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/invariant"
)

// FaultMaskBit sets the occupancy-mask bit of the router's last idle,
// empty input VC behind the VC's back — a seeded fault for the invariant
// checker's tests (violation_test.go) — and returns the bit.
func (r *Router) FaultMaskBit() int {
	for i := len(r.vcs) - 1; i >= 0; i-- {
		if r.vcs[i].state == vcIdle && r.vcs[i].empty() {
			r.occupied |= 1 << i
			return i
		}
	}
	panic("router: no idle VC")
}

// DebugState returns one line per flit the state walk finds in the
// router — a diagnostic aid for tests chasing stuck flits. A buffered
// flit's line also shows its VC's pipeline state and grant. An idle
// router returns nil.
func (r *Router) DebugState() []string {
	var out []string
	r.Walk(&flit.Walk{H: invariant.NewHasher(), Visit: func(loc flit.Loc, p *flit.Packet, f *flit.Flit) {
		line := fmt.Sprintf("router %d %v: pkt{id=%d kind=%v src=%d dst=%d} seq=%d vc=%d cs=%v",
			r.id, loc, p.ID, p.Kind, p.Src, p.Dst, f.Seq, f.VC, f.CS)
		if loc.Where == flit.VCQueue {
			vc := &r.in[loc.Port].vcs[loc.VC]
			line += fmt.Sprintf(" state=%d out=%v outVC=%d credits=%v ready=%d",
				vc.state, vc.outPort, vc.outVC, r.out[vc.outPort].credits, vc.ready)
		}
		out = append(out, line)
	}})
	return out
}
