package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// cacheLinePad separates hot atomics so that the arrival counter (written
// by every participant once per phase) and the generation word (spun on by
// every participant) never share a cache line with each other or with
// neighboring executor state.
const cacheLinePad = 64

// barrierSpinYield is how often a spinning waiter offers its P to the
// scheduler, and the cadence at which it reads the clock and the
// participants' progress.
const barrierSpinYield = 256

// barrierStallWindow is how long a waiter keeps spinning after the
// participants' progress last moved before it parks on the condition
// variable.
//
// Phases are not short: a 32x32 compute phase is ≈300–460 µs per worker
// on two cores, so a few percent of imbalance is tens of microseconds —
// longer than any fixed spin budget sized for small meshes (the old one,
// 8 192 loads, lasted ≈17–26 µs and ended half of all 32x32 waits
// parked). A park costs a VM wake-up, and the goroutine then resumes on
// whichever core is free and loses its partition's cache. So a waiter
// spins for as long as a partner is still ticking nodes, which is phase
// imbalance that the spin absorbs on its own core. It parks once the
// progress sum has not moved for this window. That happens when a
// partner has lost its CPU to another process or when the caller is
// doing long serial work between cycles, and parking then gives the CPU
// back. The window is about the old budget's whole spin.
const barrierStallWindow = 30 * time.Microsecond

// barrierCrowdedHold is how long a participant parks at once, after a
// single yield round, once one of its waits has ended in a stall. A
// partner that lost its CPU in the middle of a phase means the host has
// more runnable threads than cores, and then every spin takes CPU from a
// thread that needs it, even one that ends in a release. The hold makes
// a crowded host pay the stall window once per millisecond per
// participant, not once per park. A dedicated run stalls rarely (a
// 32x32 run at Workers=2 a few times per 1 000 cycles), so there the
// hold costs a few parked waits per stall.
const barrierCrowdedHold = time.Millisecond

// liveParties counts the participants of every barrier in the process
// that has not been closed. When it exceeds GOMAXPROCS, some participant
// is always waiting for a P (a single CPU, more workers than CPUs, or
// several parallel simulations at once), and a waiter's spin only keeps
// that participant waiting longer, so waiters park at once.
var liveParties atomic.Int32

// clockBase anchors monoNanos; time.Since on a monotonic Time reads only
// the runtime's monotonic clock.
var clockBase = time.Now()

func monoNanos() int64 { return int64(time.Since(clockBase)) }

// waitSlot is one participant's barrier accounting, padded to its own
// cache line. The participant writes it; WaitStats reads it between
// cycles, so both sides use atomics.
type waitSlot struct {
	parks  atomic.Int64
	waited atomic.Int64 // nanoseconds past the first yield round
	// crowdedUntil ends the participant's current barrierCrowdedHold.
	// Only the participant itself reads or writes it.
	crowdedUntil int64
	_            [cacheLinePad - 24]byte
}

// WaitStats is one barrier participant's self-accounting: how many of
// its waits ended parked on the condition variable, and how long it
// waited in total past the first yield round of each wait (shorter
// waits are not timed). Both depend on host timing, so they describe the
// simulator's speed, never a simulation result.
type WaitStats struct {
	Parks  int64
	Waited time.Duration
}

// phaseBarrier is a sense-reversing barrier for a fixed set of
// participants. Arrival is one atomic add; the last arriver publishes a
// new generation and wakes any parked waiters. Waiters spin on the
// generation word while the participants' progress keeps moving (see
// barrierStallWindow), then park on a condition variable. There are no
// per-phase channel sends or sync.WaitGroup re-arms: the same barrier
// object is reused every phase of every cycle.
type phaseBarrier struct {
	parties int32
	procs   int32 // GOMAXPROCS at construction
	// progress sums the participants' progress words; now reads a
	// monotonic clock in nanoseconds. The spin reads both once per yield
	// round; now is also read around a park and during a crowded hold.
	// Tests inject fakes.
	progress func() uint64
	now      func() int64
	slots    []waitSlot

	_       [cacheLinePad]byte
	arrived atomic.Int32
	_       [cacheLinePad]byte
	gen     atomic.Uint32
	_       [cacheLinePad]byte

	mu   sync.Mutex
	cond *sync.Cond
}

func newPhaseBarrier(parties int, progress func() uint64) *phaseBarrier {
	liveParties.Add(int32(parties))
	b := &phaseBarrier{
		parties:  int32(parties),
		procs:    int32(runtime.GOMAXPROCS(0)),
		progress: progress,
		now:      monoNanos,
		slots:    make([]waitSlot, parties),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// holding reports whether the participant's crowded hold still lasts.
// It reads the clock only while a hold is set.
func (b *phaseBarrier) holding(slot *waitSlot) bool {
	if slot.crowdedUntil == 0 {
		return false
	}
	if b.now() < slot.crowdedUntil {
		return true
	}
	slot.crowdedUntil = 0
	return false
}

// close retires the barrier's participants from liveParties.
func (b *phaseBarrier) close() { liveParties.Add(-b.parties) }

// stats returns every participant's accounting, participant 0 first.
func (b *phaseBarrier) stats() []WaitStats {
	out := make([]WaitStats, len(b.slots))
	for i := range b.slots {
		out[i] = WaitStats{Parks: b.slots[i].parks.Load(), Waited: time.Duration(b.slots[i].waited.Load())}
	}
	return out
}

// await blocks participant who until all parties have called await for
// the current generation. The generation is read before arrival: a party
// arrives exactly once per generation, so the generation cannot advance
// between the load and the add (the advance requires this party's own
// arrival).
func (b *phaseBarrier) await(who int) {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		// Last arriver: reset the count for the next generation before
		// publishing the new generation, so released waiters arriving at
		// the next phase barrier see a zero count. The generation store
		// happens under the mutex so a waiter cannot check the
		// generation, decide to park, and miss the broadcast.
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Store(gen + 1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	slot := &b.slots[who]
	start, released := b.spinWait(gen, slot)
	if released {
		return
	}
	slot.parks.Add(1)
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
	slot.waited.Add(b.now() - start)
}

// spinWait waits for generation gen to end without blocking. It spins on
// the generation word, and at every yield round reads the clock and the
// participants' progress sum; it gives up once that sum has not moved
// for barrierStallWindow. A crowded process, or a participant in a
// crowded hold, does not spin. It reports whether the barrier released,
// and if not, the clock at the wait's first yield round for the caller's
// park to account from. Outside a hold, a wait that ends within its
// first barrierSpinYield loads reads no clock at all.
func (b *phaseBarrier) spinWait(gen uint32, slot *waitSlot) (start int64, released bool) {
	if liveParties.Load() > b.procs || b.holding(slot) {
		// One free yield before paying for the mutex/cond park: with
		// participants waiting for a CPU this is often all it takes for
		// the remaining parties to arrive.
		runtime.Gosched()
		if b.gen.Load() != gen {
			return 0, true
		}
		return b.now(), false
	}
	var moved int64
	var seen uint64
	for i := 1; ; i++ {
		if b.gen.Load() != gen {
			if i > barrierSpinYield {
				slot.waited.Add(b.now() - start)
			}
			return 0, true
		}
		if i%barrierSpinYield != 0 {
			continue
		}
		runtime.Gosched()
		now, p := b.now(), b.progress()
		switch {
		case i == barrierSpinYield:
			start, moved, seen = now, now, p
		case p != seen:
			moved, seen = now, p
		case now-moved >= int64(barrierStallWindow):
			slot.crowdedUntil = now + int64(barrierCrowdedHold)
			return start, false
		}
	}
}
