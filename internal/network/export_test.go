package network

import "tdmnoc/internal/flit"

// Seeded NI faults for the invariant checker's tests (violation_test.go).
// Each breaks one invariant between cycles through NI state no
// production code path exposes.

// FaultLosePacket drops the newest packet from the NI's injection queue
// without un-counting it as sent, and returns its ID.
func (ni *NI) FaultLosePacket() uint64 {
	q := &ni.psQ
	q.n--
	i := (q.head + q.n) % len(q.buf)
	id := q.buf[i].ID
	q.buf[i] = nil
	return id
}

// FaultDuplicatePacket queues a copy of the NI's newest queued packet
// under a fresh ID that no NI counted as sent, and returns that ID.
func (ni *NI) FaultDuplicatePacket() uint64 {
	p := ni.psQ.at(ni.psQ.len() - 1)
	dup := &flit.Packet{ID: p.ID | 1<<39, Kind: p.Kind, Src: p.Src, Dst: p.Dst, Class: p.Class,
		Flits: p.Flits, PSFlits: p.PSFlits, CreatedAt: p.CreatedAt}
	ni.psQ.pushBack(dup)
	return dup.ID
}

// FaultDropCredit discards one of the NI's injection credits for local
// VC v.
func (ni *NI) FaultDropCredit(v int) { ni.credits[v]-- }
