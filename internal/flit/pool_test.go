package flit

import "testing"

// TestPoolGrowsBySlabAndRecycles pins the basic contract: a pool starts
// empty, a Get that finds nothing carves exactly one slab, a recycled
// packet comes back zeroed with its flit storage, and once the stock
// covers the packets alive neither Get, ExplodeInto nor Put allocates.
func TestPoolGrowsBySlabAndRecycles(t *testing.T) {
	p := NewPool(nil, 1)
	if p.Allocated() != 0 || p.Free() != 0 {
		t.Fatalf("new pool holds stock: allocated %d, free %d", p.Allocated(), p.Free())
	}
	pk := p.Get()
	if p.Allocated() != slabPackets || p.Free() != slabPackets-1 {
		t.Fatalf("first Get: allocated %d, free %d, want one %d-packet slab", p.Allocated(), p.Free(), slabPackets)
	}
	pk.ID, pk.Flits, pk.Dst = 7, 5, 3
	pk.ExplodeInto()
	p.Put(pk)
	if got := p.Get(); got != pk || got.ID != 0 || got.Flits != 0 || got.Dst != 0 || cap(got.store) != flitQuantum {
		t.Fatalf("recycled packet not zeroed with its storage kept: %+v", got)
	}
	p.Put(pk)

	// Take more than one slab, return it all: the population is now
	// 3 slabs and cycling through all of it allocates nothing.
	held := make([]*Packet, 0, 3*slabPackets)
	cycle := func() {
		for i := 0; i < cap(held); i++ {
			pk := p.Get()
			pk.Flits = flitQuantum
			pk.ExplodeInto()
			held = append(held, pk)
		}
		for _, pk := range held {
			p.Put(pk)
		}
		held = held[:0]
	}
	cycle()
	if p.Allocated() != 3*slabPackets || p.Free() != 3*slabPackets {
		t.Fatalf("after taking %d packets: allocated %d, free %d", cap(held), p.Allocated(), p.Free())
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("cycling a covered population allocates %.1f times", avg)
	}
}

// TestNilPoolDisablesRecycling pins the nil-pool contract raw
// network.Config users rely on.
func TestNilPoolDisablesRecycling(t *testing.T) {
	var p *Pool
	a := p.Get()
	p.Put(a)
	if b := p.Get(); a == nil || b == nil || a == b {
		t.Fatalf("nil pool recycled: %p then %p", a, b)
	}
	if p.Free() != 0 || p.Allocated() != 0 {
		t.Errorf("nil pool reports stock")
	}
}

// TestPoolCrossPartitionImbalance drives the worst case for partition
// pools: every packet is taken from pool A and returned to pool B. B
// may park at most spillMark packets before sharing them, and A grows
// only when it and the shared tier are both empty — when everything
// ever allocated sits in B — so the population is bounded by spillMark
// plus one slab however long the imbalance lasts, and no packet is
// dropped to the GC on the way.
func TestPoolCrossPartitionImbalance(t *testing.T) {
	shared := NewSharedPool()
	a, b := NewPool(shared, 8), NewPool(shared, 8)
	for i := 0; i < 1_000_000; i++ {
		b.Put(a.Get())
	}
	allocated := a.Allocated() + b.Allocated()
	if allocated > spillMark+slabPackets {
		t.Errorf("population grew to %d packets, want <= %d", allocated, spillMark+slabPackets)
	}
	if b.Allocated() != 0 {
		t.Errorf("the receiving pool allocated %d packets", b.Allocated())
	}
	if b.Free() > spillMark {
		t.Errorf("receiving pool parks %d packets, spill mark is %d", b.Free(), spillMark)
	}
	if free := a.Free() + b.Free() + shared.Free(); free != allocated {
		t.Errorf("%d of %d packets lost to the GC", allocated-free, allocated)
	}
}

// TestPoolSlabCarving exercises the three-index-slice guarantee: slab
// packets' flit storage is contiguous, so a packet that outgrows its
// quantum must reallocate privately instead of running into the next
// packet's flits, and a caller appending to the returned slice must
// not write into the neighbour's pointers either.
func TestPoolSlabCarving(t *testing.T) {
	p := NewPool(nil, 1)
	pkts := make([]*Packet, slabPackets)
	for i := range pkts {
		pkts[i] = p.Get()
		pkts[i].ID = uint64(i + 1)
		pkts[i].Flits = flitQuantum
		if fs := pkts[i].ExplodeInto(); cap(fs) != flitQuantum {
			t.Fatalf("packet %d: flit slice capacity %d reaches past its %d-flit quantum", i, cap(fs), flitQuantum)
		}
	}
	if p.Allocated() != slabPackets {
		t.Fatalf("took %d packets from %d allocated: not one slab", slabPackets, p.Allocated())
	}
	check := func(when string, skip int) {
		t.Helper()
		for i, pk := range pkts {
			if i == skip {
				continue
			}
			for seq, f := range pk.ptrs {
				if f.Pkt != pk || f.Seq != seq || f != &pk.store[seq] {
					t.Fatalf("%s: packet %d flit %d overwritten: %+v", when, i, seq, *f)
				}
			}
		}
	}
	check("after filling the slab", -1)

	const mid = slabPackets / 2
	big := pkts[mid]
	big.Flits = 3 * flitQuantum
	fs := big.ExplodeInto()
	if len(fs) != 3*flitQuantum {
		t.Fatalf("grown explosion has %d flits", len(fs))
	}
	check("after one packet outgrew its quantum", mid)

	// The grown packet keeps its private storage through a recycle.
	p.Put(big)
	if got := p.Get(); got != big || cap(got.store) < 3*flitQuantum {
		t.Fatalf("recycled packet lost its grown storage (cap %d)", cap(got.store))
	}
}

// TestSharedPoolConcurrentMigration is the same imbalance with the two
// pools on their own goroutines, as two executor workers would drive
// them: only the shared tier is touched from both sides (run under
// -race), and every packet is accounted for afterwards.
func TestSharedPoolConcurrentMigration(t *testing.T) {
	shared := NewSharedPool()
	a, b := NewPool(shared, 8), NewPool(shared, 8)
	inFlight := make(chan *Packet, poolBatch) // the "network" between the partitions
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pk := range inFlight {
			b.Put(pk)
		}
	}()
	for i := 0; i < 200_000; i++ {
		inFlight <- a.Get()
	}
	close(inFlight)
	<-done
	allocated := a.Allocated() + b.Allocated()
	if free := a.Free() + b.Free() + shared.Free(); free != allocated {
		t.Errorf("%d of %d packets unaccounted for", allocated-free, allocated)
	}
	if limit := spillMark + cap(inFlight) + 2*slabPackets; allocated > limit {
		t.Errorf("population grew to %d packets, want <= %d", allocated, limit)
	}
}
