package router

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
