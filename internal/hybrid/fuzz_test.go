package hybrid

import (
	"math/rand"
	"testing"

	"tdmnoc/internal/invariant"
	"tdmnoc/internal/topology"
)

// refTables is the naive reference model RouterTables is checked
// against: per input, a map from slot to (out, until) — until is
// refBooked while the entry is reserved and release + GracePeriod after
// — with every owner found by a brute-force scan over the inputs.
type refTables struct {
	in       [topology.NumPorts]map[int]refEntry
	active   int
	capacity int
	cap      float64
}

type refEntry struct {
	out   topology.Port
	until int64
}

const refBooked = int64(1) << 62

func newRefTables(capacity, active int, cap float64) *refTables {
	m := &refTables{capacity: capacity, cap: cap}
	m.reset(active)
	return m
}

func (m *refTables) reset(active int) {
	for p := range m.in {
		m.in[p] = map[int]refEntry{}
	}
	m.active = active
}

func (m *refTables) lookup(in topology.Port, slot int, now int64) (topology.Port, bool) {
	if e, ok := m.in[in][slot]; ok && now < e.until {
		return e.out, true
	}
	return 0, false
}

func (m *refTables) booked(in topology.Port) int {
	n := 0
	for _, e := range m.in[in] {
		if e.until == refBooked {
			n++
		}
	}
	return n
}

func (m *refTables) owner(slot int, out topology.Port, now int64) (topology.Port, bool) {
	var owner topology.Port
	n := 0
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if o, ok := m.lookup(p, slot, now); ok && o == out {
			owner, n = p, n+1
		}
	}
	if n > 1 {
		panic("reference model: two owners")
	}
	return owner, n == 1
}

func (m *refTables) canReserve(in, out topology.Port, slot, dur int, now int64) bool {
	if float64(m.booked(in)+dur) > m.cap*float64(m.active) {
		return false
	}
	for i := 0; i < dur; i++ {
		s := (slot + i) % m.active
		_, inTaken := m.lookup(in, s, now)
		_, outTaken := m.owner(s, out, now)
		if inTaken || outTaken {
			return false
		}
	}
	return true
}

func (m *refTables) reserve(in, out topology.Port, slot, dur int, now int64) bool {
	if !m.canReserve(in, out, slot, dur, now) {
		return false
	}
	for i := 0; i < dur; i++ {
		m.in[in][(slot+i)%m.active] = refEntry{out: out, until: refBooked}
	}
	return true
}

func (m *refTables) release(in topology.Port, slot, dur int, now int64) (topology.Port, bool) {
	first, ok := m.in[in][slot%m.active]
	if !ok || first.until != refBooked {
		return 0, false
	}
	for i := 0; i < dur; i++ {
		s := (slot + i) % m.active
		if e := m.in[in][s]; e.until == refBooked {
			m.in[in][s] = refEntry{out: e.out, until: now + GracePeriod}
		}
	}
	return first.out, true
}

func (m *refTables) durationAt(in topology.Port, slot int, now int64) int {
	out, ok := m.lookup(in, slot, now)
	n := 0
	for ok && n < m.active {
		n++
		o, routes := m.lookup(in, (slot+n)%m.active, now)
		ok = routes && o == out
	}
	return n
}

// refCoverage counts the table behaviours an op stream exercised.
type refCoverage struct {
	graceExpiries int // a released entry stopped routing
	wraps         int // a successful reservation ran past the last slot
	resets        int
}

// runTablesAgainstReference drives RouterTables and the reference model
// with the same op stream, four bytes per op, and fails t at the first
// disagreement. Capacity is twice the initial active size, so a Reset
// can grow the table.
func runTablesAgainstReference(t *testing.T, ops []byte, active8, cap8 uint8) refCoverage {
	t.Helper()
	active := int(active8%29) + 4
	capacity := 2 * active
	reserveCap := []float64{DefaultReserveCap, 1, 0.5}[cap8%3]
	rt := NewRouterTables(capacity, active)
	rt.ReserveCap = reserveCap
	m := newRefTables(capacity, active, reserveCap)
	var cov refCoverage
	now := int64(0)
	for i := 0; i+3 < len(ops); i += 4 {
		now += int64(ops[i] >> 3)
		in := topology.Port(ops[i+1] % uint8(topology.NumPorts))
		out := topology.Port(ops[i+1] / uint8(topology.NumPorts) % uint8(topology.NumPorts))
		slot := int(ops[i+2]) % rt.Active()
		dur := int(ops[i+3])%6 + 1
		switch ops[i] % 8 {
		case 0, 1, 2, 3:
			if got, want := rt.CanReserve(in, out, slot, dur, now), m.canReserve(in, out, slot, dur, now); got != want {
				t.Fatalf("op %d: CanReserve(%v,%v,%d,%d,%d) = %v, model %v", i/4, in, out, slot, dur, now, got, want)
			}
			got, want := rt.Reserve(in, out, slot, dur, now), m.reserve(in, out, slot, dur, now)
			if got != want {
				t.Fatalf("op %d: Reserve(%v,%v,%d,%d,%d) = %v, model %v", i/4, in, out, slot, dur, now, got, want)
			}
			if got && slot+dur > rt.Active() {
				cov.wraps++
			}
		case 4, 5:
			o, ok := rt.Release(in, slot, dur, now)
			wo, wok := m.release(in, slot, dur, now)
			if o != wo || ok != wok {
				t.Fatalf("op %d: Release(%v,%d,%d,%d) = (%v,%v), model (%v,%v)", i/4, in, slot, dur, now, o, ok, wo, wok)
			}
		case 6:
			// Jump past, or to the edge of, every open grace window.
			before := 0
			for p := topology.Port(0); p < topology.NumPorts; p++ {
				for s := 0; s < m.active; s++ {
					if _, ok := m.lookup(p, s, now); ok {
						before++
					}
				}
			}
			now += GracePeriod - 1 + int64(ops[i+3]%2)
			for p := topology.Port(0); p < topology.NumPorts; p++ {
				for s := 0; s < m.active; s++ {
					if _, ok := m.lookup(p, s, now); ok {
						before--
					}
				}
			}
			cov.graceExpiries += before
		case 7:
			next := active
			if ops[i+3]%2 == 1 {
				next = capacity
			}
			rt.Reset(next)
			m.reset(next)
			cov.resets++
		}
		compareTables(t, i/4, rt, m, now)
	}
	return cov
}

// compareTables checks every query of rt against the model at cycle now,
// and the structural invariants through the tables' own walk.
func compareTables(t *testing.T, op int, rt *RouterTables, m *refTables, now int64) {
	t.Helper()
	if rt.Active() != m.active || rt.Capacity() != m.capacity {
		t.Fatalf("op %d: active/capacity %d/%d, model %d/%d", op, rt.Active(), rt.Capacity(), m.active, m.capacity)
	}
	total := 0
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		total += m.booked(p)
	}
	if rt.ReservedEntries() != total {
		t.Fatalf("op %d: ReservedEntries %d, model %d", op, rt.ReservedEntries(), total)
	}
	for s := 0; s < m.active; s++ {
		// The first cycle at or after now that falls in slot s.
		cycle := now + int64((s-int(now%int64(m.active))+m.active)%m.active)
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			o, ok := rt.LookupSlot(p, s, now)
			wo, wok := m.lookup(p, s, now)
			if o != wo || ok != wok {
				t.Fatalf("op %d: LookupSlot(%v,%d,%d) = (%v,%v), model (%v,%v)", op, p, s, now, o, ok, wo, wok)
			}
			o, ok = rt.Lookup(p, cycle)
			wo, wok = m.lookup(p, s, cycle)
			if o != wo || ok != wok {
				t.Fatalf("op %d: Lookup(%v,%d) = (%v,%v), model (%v,%v)", op, p, cycle, o, ok, wo, wok)
			}
			if got, want := rt.DurationAt(p, s, now), m.durationAt(p, s, now); got != want {
				t.Fatalf("op %d: DurationAt(%v,%d,%d) = %d, model %d", op, p, s, now, got, want)
			}
			in, ok := rt.OutReservedAt(cycle, p)
			win, wok := m.owner(s, p, cycle)
			if in != win || ok != wok {
				t.Fatalf("op %d: OutReservedAt(%d,%v) = (%v,%v), model (%v,%v)", op, cycle, p, in, ok, win, wok)
			}
		}
	}
	rt.Walk(new(invariant.Hasher), func(kind, detail string) {
		t.Fatalf("op %d: %s violation: %s", op, kind, detail)
	})
}

// refSeeds is the shared seed corpus: grace windows opened and expired,
// reservations wrapping past the last slot, and resets that grow and
// restore the table.
var refSeeds = []struct {
	ops           []byte
	active8, cap8 uint8
}{
	{[]byte{0, 1, 2, 3, 4, 5, 6, 7}, 16, 0},
	{[]byte{255, 0, 128, 64, 32, 9, 200, 100, 50, 25}, 32, 1},
	// Reserve Local->North at slot 6 for 4 of 8 slots (wraps), release
	// it, probe inside the grace window, jump past it, book it again,
	// then grow to 16 slots and wrap there.
	{[]byte{0, 5, 6, 3, 4, 5, 6, 3, 6, 3, 8, 5, 6, 0, 0, 1, 0, 5, 6, 3, 7, 0, 0, 1, 0, 5, 14, 3}, 4, 1},
	// North and South contend for East: refused while North holds it,
	// refused inside North's grace window, granted the cycle it closes;
	// then a reset back to the initial size.
	{[]byte{0, 11, 1, 2, 0, 13, 1, 2, 4, 11, 1, 2, 0, 13, 1, 2, 6, 0, 0, 0, 0, 13, 1, 2, 8, 13, 1, 2, 7, 0, 0, 0, 0, 13, 1, 2}, 8, 0},
}

// TestRouterTablesMatchReference drives RouterTables and the reference
// model over the seed corpus and a fixed set of pseudo-random op streams,
// and requires the seeds alone to cover grace expiry, wrap-around and
// Reset.
func TestRouterTablesMatchReference(t *testing.T) {
	var seeds refCoverage
	for _, c := range refSeeds {
		cov := runTablesAgainstReference(t, c.ops, c.active8, c.cap8)
		seeds.graceExpiries += cov.graceExpiries
		seeds.wraps += cov.wraps
		seeds.resets += cov.resets
	}
	if seeds.graceExpiries == 0 || seeds.wraps == 0 || seeds.resets == 0 {
		t.Fatalf("seed corpus misses a behaviour: %+v", seeds)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 4*(8+rng.Intn(120)))
		rng.Read(ops)
		runTablesAgainstReference(t, ops, uint8(rng.Intn(256)), uint8(rng.Intn(3)))
	}
}

// FuzzRouterTablesOps is the open-ended form of
// TestRouterTablesMatchReference: random op streams against the
// reference model.
func FuzzRouterTablesOps(f *testing.F) {
	for _, c := range refSeeds {
		f.Add(c.ops, c.active8, c.cap8)
	}
	f.Fuzz(func(t *testing.T, ops []byte, active8, cap8 uint8) {
		runTablesAgainstReference(t, ops, active8, cap8)
	})
}
