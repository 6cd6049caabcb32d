package obs

import (
	"math/bits"
	"unsafe"
)

// Ring is a bounded event buffer preallocated at construction. Push
// never allocates: when the ring is full the oldest event is overwritten
// and the drop counter increments. Capacity is rounded up to a power of
// two so Push indexes with a mask instead of two modulo operations —
// the ring sits on the traced cycle hot path. It is single-owner (each
// executor worker writes its own shard ring) and makes no concurrency
// promises of its own; cross-worker visibility is provided by the
// executor's phase barriers.
type Ring struct {
	buf     []Event
	mask    int // len(buf) - 1; len(buf) is a power of two
	head    int // index of the oldest event
	n       int // number of live events
	dropped uint64
}

// ceilPow2 returns the smallest power of two >= v (v >= 1).
func ceilPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// NewRing allocates a ring holding up to capacity events, rounded UP to
// the next power of two (so Cap() may exceed the request — callers that
// size rings for drop-free runs only ever gain headroom). A capacity
// below 1 is raised to 1 so Push is always well-defined. The buffer is
// touched once at construction so a huge ring does not page-fault lazily
// inside a measured run.
func NewRing(capacity int) *Ring {
	capacity = ceilPow2(capacity)
	buf := make([]Event, capacity)
	// Prefault: write one event per 4 KiB page. make() hands back lazily
	// mapped zero pages for large buffers; faulting them here keeps the
	// first wrap of a multi-hundred-MB ring out of benchmark windows.
	const eventsPerPage = 4096 / int(unsafe.Sizeof(Event{}))
	for i := 0; i < len(buf); i += eventsPerPage {
		buf[i] = Event{}
	}
	return &Ring{buf: buf, mask: capacity - 1}
}

// Push appends e, overwriting the oldest event if the ring is full.
func (r *Ring) Push(e Event) {
	r.buf[(r.head+r.n)&r.mask] = e
	if r.n > r.mask { // n == len(buf): the store above clobbered the oldest
		r.head = (r.head + 1) & r.mask
		r.dropped++
		return
	}
	r.n++
}

// Len returns the number of live events.
func (r *Ring) Len() int { return r.n }

// Cap returns the ring's capacity (a power of two >= the requested one).
func (r *Ring) Cap() int { return len(r.buf) }

// Dropped returns how many events were overwritten since construction.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Do calls fn for each live event, oldest first, without allocating.
func (r *Ring) Do(fn func(Event)) {
	for i := 0; i < r.n; i++ {
		fn(r.buf[(r.head+i)&r.mask])
	}
}
