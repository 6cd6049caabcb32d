package flit

import "sync"

// Pool is a free list of Packet objects, including their embedded flit
// storage (see ExplodeInto). One pool serves all the NIs that a single
// worker ticks — an executor partition, or a whole serial engine — so
// Get/Put need no synchronisation: a packet is taken from the sending
// NI's partition pool and returned to the delivering NI's partition
// pool, each inside that NI's own compute phase.
//
// The stock follows the packets that exist: a pool starts empty and
// grows one slab at a time when a Get finds nothing to recycle, and it
// never shrinks — packets only ever come back, so the population is
// bounded by the peak the simulation itself reached.
//
// Ownership contract: a packet may be Put only when nothing in the
// simulation can still reach it — in practice, exactly when its tail
// flit is consumed at its final destination (delivery of a data packet,
// consumption of an ack/teardown). Flits of one packet travel in order
// over a single path and the source stream has necessarily finished
// before the tail arrives, so tail consumption proves every flit and
// every reference to the packet is dead. Loopback deliveries are the
// one exception — the caller of Send keeps the returned pointer to
// annotate it — and are simply never recycled.
//
// A nil *Pool is valid and disables recycling: Get allocates, Put
// discards — that is the default for raw network.Config users, some of
// which retain delivered packets.
type Pool struct {
	free []*Packet
	// allocated counts the packets this pool has carved from slabs.
	allocated int
	// overflow is the optional shared second tier: Put spills a batch
	// there when the local list passes spillMark, Get refills from
	// there before growing a slab.
	overflow *SharedPool
}

const (
	// slabPackets is the growth unit: one Packet array plus the flit
	// storage of its packets, three allocations per 64 packets.
	slabPackets = 64

	// flitQuantum is ExplodeInto's capacity rounding unit; slab packets
	// pre-size their embedded flit storage to it so even a packet's
	// first explosion allocates nothing.
	flitQuantum = 8

	// poolBatch is how many packets move between a local list and the
	// shared tier per transfer, amortising the shared tier's lock.
	poolBatch = 32

	// spillMark is the local length beyond which Put moves a batch to
	// the shared tier. Traffic with a chronic send/receive imbalance
	// between partitions (hotspot; transpose across a partition
	// boundary) fills one pool while draining another; spilling at a
	// fixed mark bounds what the filling side can park — at most
	// spillMark packets per pool, two slabs' worth — so the draining
	// side refills from the shared tier instead of growing for ever.
	spillMark = 2 * slabPackets
)

// SharedPool is the mutex-guarded tier through which packets migrate
// between the pools of different executor partitions. It is only needed
// when there is more than one pool: a pool that receives more packets
// than it hands out spills batches here, and a pool that runs dry takes
// them back before allocating. The lock is touched once per poolBatch
// packets of net migration, not per packet.
type SharedPool struct {
	mu   sync.Mutex
	free []*Packet
}

// NewSharedPool returns an empty shared tier.
func NewSharedPool() *SharedPool { return &SharedPool{} }

// getBatch moves up to poolBatch packets from the shared tier onto dst,
// returning the extended slice.
func (s *SharedPool) getBatch(dst []*Packet) []*Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free) - min(poolBatch, len(s.free))
	dst = append(dst, s.free[n:]...)
	clear(s.free[n:])
	s.free = s.free[:n]
	return dst
}

// putBatch moves the packets in src into the shared tier and clears
// src's slots.
func (s *SharedPool) putBatch(src []*Packet) {
	s.mu.Lock()
	s.free = append(s.free, src...)
	s.mu.Unlock()
	clear(src)
}

// Free reports the shared tier's current length (for tests and
// diagnostics).
func (s *SharedPool) Free() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// NewPool returns an empty pool serving the given number of tiles. A
// non-nil overflow links the pool into a shared tier; nil keeps the
// pool standalone. tiles is only a hint for the free list's first
// backing array (one slot per tile, and never less than a spilling
// pool can hold); the stock itself is sized by use.
func NewPool(overflow *SharedPool, tiles int) *Pool {
	return &Pool{free: make([]*Packet, 0, max(tiles, spillMark+1)), overflow: overflow}
}

// grow carves one slab onto the free list: one Packet array plus
// contiguous flit storage, split per packet with full-capacity slices
// so a packet that later outgrows its quantum reallocates its storage
// out of the slab instead of running into its neighbour's (ExplodeInto
// replaces, never appends past capacity). A standalone pool's free
// list is kept large enough for every packet the pool ever carved (a
// spilling pool never holds more than NewPool reserved), so in a pool
// that only sees its own packets all allocation happens here and Put
// never allocates.
func (p *Pool) grow() {
	p.allocated += slabPackets
	if p.overflow == nil && cap(p.free) < p.allocated {
		free := make([]*Packet, len(p.free), 2*p.allocated)
		copy(free, p.free)
		p.free = free
	}
	pkts := make([]Packet, slabPackets)
	store := make([]Flit, slabPackets*flitQuantum)
	ptrs := make([]*Flit, slabPackets*flitQuantum)
	for i := range pkts {
		o := i * flitQuantum
		pkts[i].store = store[o : o : o+flitQuantum]
		pkts[i].ptrs = ptrs[o : o : o+flitQuantum]
		p.free = append(p.free, &pkts[i])
	}
}

// Get returns a zeroed packet, recycling a free one when available.
//
// Which recycled object a caller receives depends on pool traffic and,
// through the shared tier, on worker scheduling — but that can never
// affect results: Put zeroes every field, so a recycled packet is
// indistinguishable from a fresh allocation, and nothing in the
// simulation keys on packet object identity.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	if len(p.free) == 0 {
		if p.overflow != nil {
			p.free = p.overflow.getBatch(p.free)
		}
		if len(p.free) == 0 {
			p.grow()
		}
	}
	n := len(p.free) - 1
	pk := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return pk
}

// Put recycles a dead packet. The packet is zeroed here (keeping its
// flit storage) so a recycled Get is indistinguishable from a fresh
// allocation; stale flit values in the storage are harmless because
// ExplodeInto rewrites every flit before the packet re-enters the
// network.
func (p *Pool) Put(pk *Packet) {
	if p == nil || pk == nil {
		return
	}
	store, ptrs := pk.store, pk.ptrs
	*pk = Packet{store: store, ptrs: ptrs}
	p.free = append(p.free, pk)
	if p.overflow != nil && len(p.free) > spillMark {
		n := len(p.free) - poolBatch
		p.overflow.putBatch(p.free[n:])
		p.free = p.free[:n]
	}
}

// Free reports the current free-list length (for tests and diagnostics).
func (p *Pool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Allocated reports how many packets the pool has ever carved. Packets
// migrate between pools, so only the sum over all pools sharing one
// overflow tier is a population.
func (p *Pool) Allocated() int {
	if p == nil {
		return 0
	}
	return p.allocated
}
