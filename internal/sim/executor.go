package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The armed-slot parity scheme in NodeState assumes exactly two phases
// per cycle; this fails to compile if NumPhases ever changes.
var _ = [1]struct{}{}[NumPhases-2]

// Executor drives a set of Tickers through cycles, either serially or
// with a fixed worker pool. Both modes produce bit-identical simulation
// results because each phase is barrier-separated and Tickers only touch
// disjoint state within a phase (see Phase).
//
// Parallel stepping uses one reusable sense-reversing barrier and static
// per-worker partitions: the caller's goroutine executes partition 0 and
// workers execute the rest, rendezvousing NumPhases+1 times per cycle
// (a start gate plus one barrier after each phase). There are no
// per-phase channel sends or WaitGroup re-arms on the hot path.
//
// Tickers implementing ActiveTicker additionally participate in
// active-node scheduling: a node whose Quiescent() held after its last
// tick is skipped until an external event re-arms it (see NodeState).
// Skipping never changes results because Quiescent is only allowed to
// hold when both phases would be exact state no-ops.
type Executor struct {
	clock   *Clock
	tickers []Ticker
	// sched and active run parallel to tickers: sched[i] is the
	// scheduling word of tickers[i] (nil = always tick), active[i] the
	// ActiveTicker view for the post-tick Quiescent probe. Both are nil
	// slices when no ticker opted into scheduling.
	sched  []*NodeState
	active []ActiveTicker
	// alwaysTick disables skipping (every node ticks every phase); used
	// by equivalence tests to pin the skipping path against the
	// exhaustive one.
	alwaysTick bool

	workers int
	parts   []partition
	barrier *phaseBarrier
	// curNow carries the cycle being executed from the caller to the
	// workers; it is written before the start-gate arrival and read
	// after the release, so the barrier's atomics order it.
	curNow   Cycle
	shutdown atomic.Bool
	closed   bool
	wg       sync.WaitGroup

	// A panic inside any participant would otherwise either kill the
	// process (worker goroutine) or abandon the other participants at a
	// phase barrier (caller goroutine). Every participant latches the
	// first panic here, keeps arriving at the cycle's remaining
	// barriers, and the caller re-raises it after the last barrier.
	hasPanic   atomic.Bool
	panicMu    sync.Mutex
	panicked   any
	panicStack []byte
}

// partition is one worker's static [lo, hi) span of the ticker slice,
// padded so adjacent partitions never share a cache line. progress
// counts the progressStride-sized runs of the span its worker has
// ticked; barrier waiters read the sum of every partition's word to tell
// a partner that is still working from one that has stalled.
type partition struct {
	lo, hi   int
	progress atomic.Uint64
	_        [cacheLinePad - 24]byte
}

// progressStride is how many tickers a worker visits between progress
// stores: at 32x32 a compute phase visits ≈512 nodes per worker in
// ≈300–460 µs, so a store lands every ≈10–15 µs, well inside
// barrierStallWindow, at the cost of one atomic add per 16 nodes.
const progressStride = 16

// NewExecutor creates an executor over tickers. workers <= 1 selects the
// serial path; workers > 1 spawns workers-1 goroutines which persist for
// the executor's lifetime (the caller's goroutine executes the first
// partition itself).
//
// The requested worker count is honored even beyond the machine's CPU
// count (the goroutines just time-share): results are bit-identical for
// any worker count, and tests that compare serial against parallel
// executions rely on actually getting a parallel partition — a silent
// clamp to NumCPU() on a single-CPU CI runner would turn those into
// vacuous serial-vs-serial comparisons. The only cap is the ticker
// count, below which extra workers could never receive work.
func NewExecutor(clock *Clock, tickers []Ticker, workers int) *Executor {
	n := len(tickers)
	workers = clampWorkers(workers, n)
	chunk := (n + workers - 1) / workers
	spans := make([]Span, workers)
	for i := range spans {
		lo := min(i*chunk, n)
		spans[i] = Span{Lo: lo, Hi: min(lo+chunk, n)}
	}
	return NewExecutorSpans(clock, tickers, spans)
}

// Span is one worker's half-open range [Lo, Hi) over the ticker slice.
type Span struct{ Lo, Hi int }

// NewExecutorSpans creates an executor whose per-worker partitions are
// given explicitly — one span per worker, worker 0 first. Spans must be
// ascending, contiguous, and cover the ticker slice exactly; anything
// else is a construction-time bug and panics. Callers that lay tickers
// out partition-contiguously (see BlockPartition) use this to hand the
// executor the matching spans instead of having it re-derive chunks.
func NewExecutorSpans(clock *Clock, tickers []Ticker, spans []Span) *Executor {
	if len(spans) == 0 {
		spans = []Span{{Lo: 0, Hi: len(tickers)}}
	}
	at := 0
	for i, s := range spans {
		if s.Lo != at || s.Hi < s.Lo {
			panic(fmt.Sprintf("sim: span %d is [%d,%d), want to start at %d", i, s.Lo, s.Hi, at))
		}
		at = s.Hi
	}
	if at != len(tickers) {
		panic(fmt.Sprintf("sim: spans cover [0,%d), want [0,%d)", at, len(tickers)))
	}
	workers := len(spans)
	e := &Executor{clock: clock, tickers: tickers, workers: workers}
	for i, t := range tickers {
		at, ok := t.(ActiveTicker)
		if !ok {
			continue
		}
		st := at.SchedState()
		if st == nil {
			continue
		}
		if e.sched == nil {
			e.sched = make([]*NodeState, len(tickers))
			e.active = make([]ActiveTicker, len(tickers))
		}
		e.sched[i] = st
		e.active[i] = at
	}
	e.WakeAll()
	if workers > 1 {
		e.parts = make([]partition, workers)
		for i, s := range spans {
			e.parts[i] = partition{lo: s.Lo, hi: s.Hi}
		}
		e.barrier = newPhaseBarrier(workers, e.progressSum)
		e.wg.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go e.workerLoop(i)
		}
	}
	return e
}

// progressSum is the barrier's progress source: the sum of every
// partition's progress word. It moves while any participant is ticking.
func (e *Executor) progressSum() uint64 {
	var sum uint64
	for i := range e.parts {
		sum += e.parts[i].progress.Load()
	}
	return sum
}

// WaitStats returns each participant's barrier accounting, the caller's
// partition first, or nil for a serial executor. The counts depend on
// host timing and enter no simulation result. Call it between Steps.
func (e *Executor) WaitStats() []WaitStats {
	if e.barrier == nil {
		return nil
	}
	return e.barrier.stats()
}

// Workers returns the effective worker count (>= 1).
func (e *Executor) Workers() int { return e.workers }

// WakeAll re-arms every scheduled node for the clock's current cycle.
// Management code that mutates node state outside the tick loop (e.g. a
// network-wide slot-table reset) calls this so no node sleeps through
// the change. Must not be called while a Step is in flight.
func (e *Executor) WakeAll() {
	now := e.clock.Now()
	for _, st := range e.sched {
		if st != nil {
			st.Wake(now)
		}
	}
}

// SetAlwaysTick disables (true) or re-enables (false) active-node
// scheduling. With scheduling re-enabled, every node is re-armed so
// nothing sleeps through states reached while skipping was off. Test
// hook; must not be called while a Step is in flight.
func (e *Executor) SetAlwaysTick(v bool) {
	e.alwaysTick = v
	if !v {
		e.WakeAll()
	}
}

func (e *Executor) workerLoop(part int) {
	defer e.wg.Done()
	for {
		e.barrier.await(part) // start gate
		if e.shutdown.Load() {
			return
		}
		now := e.curNow
		for p := Phase(0); p < Phase(NumPhases); p++ {
			e.runPart(part, now, p)
			e.barrier.await(part)
		}
	}
}

// runPart executes one partition of one phase, converting a Ticker panic
// into a latched value instead of a process crash or a barrier deadlock.
// Only the first panic is kept; once a panic is latched the tickers'
// state is inconsistent and the executor must not be reused, so later
// panics add no information and remaining partitions stop ticking.
func (e *Executor) runPart(part int, now Cycle, phase Phase) {
	if e.hasPanic.Load() {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			e.panicMu.Lock()
			if e.panicked == nil {
				e.panicked = p
				e.panicStack = stack
			}
			e.panicMu.Unlock()
			e.hasPanic.Store(true)
		}
	}()
	pt := &e.parts[part]
	for lo := pt.lo; lo < pt.hi; {
		hi := min(lo+progressStride, pt.hi)
		e.tickSpan(lo, hi, now, phase)
		pt.progress.Add(1)
		lo = hi
	}
}

// tickSpan is the scheduling hot loop: tick every armed node in
// [lo, hi) for the given phase, then re-arm it for the next phase.
//
// The Quiescent probe (which decides NOT to re-arm) runs only after
// PhaseCompute ticks: during compute every write is node-local, so the
// probe can read the node's state race-free. During transfer, neighbors
// legitimately write into a node (latch pulls, credit returns, local
// staging), so a post-transfer probe would race; instead a ticked node
// is unconditionally re-armed for the next compute, whose probe then
// puts it to sleep if it is truly idle — one extra no-op tick per sleep
// transition.
func (e *Executor) tickSpan(lo, hi int, now Cycle, phase Phase) {
	tickers := e.tickers
	if e.sched == nil || e.alwaysTick {
		for i := lo; i < hi; i++ {
			tickers[i].Tick(now, phase)
		}
		return
	}
	pc := phaseCounter(now, phase)
	sched := e.sched
	if phase == PhaseCompute {
		active := e.active
		for i := lo; i < hi; i++ {
			st := sched[i]
			if st == nil {
				tickers[i].Tick(now, phase)
				continue
			}
			if !st.runnable(pc) {
				continue
			}
			tickers[i].Tick(now, phase)
			if !active[i].Quiescent() {
				st.armNext(pc)
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		st := sched[i]
		if st == nil {
			tickers[i].Tick(now, phase)
			continue
		}
		if !st.runnable(pc) {
			continue
		}
		tickers[i].Tick(now, phase)
		st.armNext(pc)
	}
}

// Step executes one full cycle (all phases) and advances the clock.
func (e *Executor) Step() {
	if e.closed {
		panic("sim: Step on closed Executor")
	}
	now := e.clock.Now()
	if e.workers <= 1 {
		for p := Phase(0); p < Phase(NumPhases); p++ {
			e.tickSpan(0, len(e.tickers), now, p)
		}
		e.clock.Advance()
		return
	}
	e.curNow = now
	e.barrier.await(0) // start gate: release workers into this cycle
	for p := Phase(0); p < Phase(NumPhases); p++ {
		e.runPart(0, now, p)
		e.barrier.await(0)
	}
	// Re-raise a participant panic on the caller's goroutine so per-job
	// containment (campaign's recover) sees it. This happens after the
	// cycle's final barrier — the workers are already parked at the next
	// start gate, so a deferred Close still shuts them down cleanly —
	// and before the clock advances, pinning the panicking cycle. The
	// latched value stays set: the executor's state is inconsistent
	// after a panic and it must not be stepped again.
	if e.hasPanic.Load() {
		e.panicMu.Lock()
		p, stack := e.panicked, e.panicStack
		e.panicMu.Unlock()
		panic(fmt.Sprintf("sim: worker panic: %v\n%s", p, stack))
	}
	e.clock.Advance()
}

// Run executes n cycles.
func (e *Executor) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// RunUntil executes cycles until done reports true, checking before the
// first cycle and after every cycle, or until limit cycles have elapsed.
// It returns the number of cycles executed and whether done was
// satisfied. A condition that already holds at entry returns (0, true)
// without stepping — running a gratuitous cycle would skew
// packet-target-driven campaign measurements by one cycle.
func (e *Executor) RunUntil(done func() bool, limit int) (cycles int, ok bool) {
	if done() {
		return 0, true
	}
	for i := 0; i < limit; i++ {
		e.Step()
		if done() {
			return i + 1, true
		}
	}
	return limit, false
}

// Close shuts down the worker pool and waits for every worker goroutine
// to exit, so no goroutines leak. Close is idempotent; any Step after
// Close panics (before this contract the executor silently fell back to
// the serial path, masking use-after-close bugs).
func (e *Executor) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.workers > 1 {
		e.shutdown.Store(true)
		e.barrier.await(0) // trip the start gate so parked workers observe shutdown
		e.wg.Wait()
		e.barrier.close()
	}
}
