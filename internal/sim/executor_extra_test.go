package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- Close / lifecycle contracts -----------------------------------------

func TestExecutorStepAfterClosePanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		clock := &Clock{}
		ts := make([]Ticker, 8)
		for i := range ts {
			ts[i] = &countingTicker{}
		}
		e := NewExecutor(clock, ts, workers)
		e.Run(2)
		e.Close()
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("workers=%d: Step after Close did not panic (the old executor silently fell back to serial)", workers)
				}
				if s, ok := p.(string); !ok || !strings.Contains(s, "closed") {
					t.Errorf("workers=%d: panic %v does not name the closed executor", workers, p)
				}
			}()
			e.Step()
		}()
	}
}

func TestExecutorCloseIdempotent(t *testing.T) {
	e := NewExecutor(&Clock{}, []Ticker{&countingTicker{}, &countingTicker{}}, 2)
	e.Run(3)
	e.Close()
	e.Close() // second Close must be a no-op, not a barrier deadlock
}

// TestExecutorCloseReleasesGoroutines pins the leak contract: Close joins
// every worker goroutine. Campaigns construct thousands of executors;
// leaking workers+barrier state per simulation would be fatal there.
func TestExecutorCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for rep := 0; rep < 10; rep++ {
		clock := &Clock{}
		ts := make([]Ticker, 32)
		for i := range ts {
			ts[i] = &countingTicker{}
		}
		e := NewExecutor(clock, ts, 8)
		e.Run(5)
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 10 create/close rounds",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecutorDoublePanicSameCycle: when two partitions panic in the same
// phase, exactly the first latched value must surface and the executor
// must still release every barrier participant (no deadlock).
func TestExecutorDoublePanicSameCycle(t *testing.T) {
	clock := &Clock{}
	ts := []Ticker{
		&panicTicker{at: 2}, &countingTicker{},
		&panicTicker{at: 2}, &countingTicker{},
	}
	e := NewExecutor(clock, ts, 4)
	func() {
		defer e.Close()
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("neither panic reached the caller")
			}
		}()
		e.Run(10)
	}()
	if clock.Now() != 2 {
		t.Errorf("clock at %d, want the panicking cycle 2", clock.Now())
	}
}

// --- Active-node scheduling ----------------------------------------------

// sleeperTicker is an ActiveTicker that reports quiescent once it has
// run computeBudget compute ticks, then stays asleep until re-armed.
type sleeperTicker struct {
	node      NodeState
	computes  int
	transfers int
	budget    int
}

func (s *sleeperTicker) Tick(now Cycle, phase Phase) {
	if phase == PhaseCompute {
		s.computes++
	} else {
		s.transfers++
	}
}
func (s *sleeperTicker) SchedState() *NodeState { return &s.node }
func (s *sleeperTicker) Quiescent() bool        { return s.computes >= s.budget }

func TestExecutorSkipsQuiescentNodes(t *testing.T) {
	clock := &Clock{}
	sl := &sleeperTicker{budget: 3}
	always := &countingTicker{} // not an ActiveTicker: must tick every phase
	e := NewExecutor(clock, []Ticker{sl, always}, 1)
	defer e.Close()

	e.Run(10)
	// Cycles 0 and 1 tick fully; cycle 2's compute probe sees
	// computes==3, stops re-arming, and the un-armed cycle-2 transfer is
	// skipped along with everything after it.
	if sl.computes != 3 {
		t.Errorf("sleeper computes = %d, want 3 (skipped after quiescence)", sl.computes)
	}
	if sl.transfers != 2 {
		t.Errorf("sleeper transfers = %d, want 2", sl.transfers)
	}
	if always.computes != 10 || always.transfers != 10 {
		t.Errorf("non-scheduled ticker ran %d/%d, want 10/10", always.computes, always.transfers)
	}

	// An external wake re-arms both phases of the current cycle: the
	// node runs one compute (whose probe sees it is still quiescent),
	// the woken transfer, and the transfer's unconditionally re-armed
	// follow-up compute — then sleeps again.
	sl.budget = sl.computes + 1
	sl.node.Wake(clock.Now())
	e.Run(5)
	if sl.computes != 5 || sl.transfers != 3 {
		t.Errorf("woken sleeper ran %d/%d, want 5/3", sl.computes, sl.transfers)
	}
}

func TestExecutorAlwaysTickDisablesSkipping(t *testing.T) {
	clock := &Clock{}
	sl := &sleeperTicker{budget: 0} // quiescent from the start
	e := NewExecutor(clock, []Ticker{sl}, 1)
	defer e.Close()
	e.SetAlwaysTick(true)
	e.Run(6)
	if sl.computes != 6 || sl.transfers != 6 {
		t.Fatalf("AlwaysTick ran %d/%d, want 6/6", sl.computes, sl.transfers)
	}
	// Re-enabling scheduling re-arms everything; the node then runs one
	// probe compute, the armed transfer, and its follow-up compute
	// before going to sleep (see TestExecutorSkipsQuiescentNodes).
	e.SetAlwaysTick(false)
	e.Run(6)
	if sl.computes != 8 || sl.transfers != 7 {
		t.Fatalf("after re-enabling scheduling ran %d/%d, want 8/7", sl.computes, sl.transfers)
	}
}

// TestExecutorSchedulingParallelMatchesSerial runs the same sleeper mix
// under several worker counts, including counts that do not divide the
// ticker count, and requires identical per-ticker tick totals.
func TestExecutorSchedulingParallelMatchesSerial(t *testing.T) {
	const n = 37 // prime: never divisible by the worker counts below
	run := func(workers int) []int {
		clock := &Clock{}
		ts := make([]Ticker, n)
		sleepers := make([]*sleeperTicker, n)
		for i := range ts {
			sleepers[i] = &sleeperTicker{budget: i % 5}
			ts[i] = sleepers[i]
		}
		e := NewExecutor(clock, ts, workers)
		defer e.Close()
		e.Run(20)
		out := make([]int, n)
		for i, s := range sleepers {
			out[i] = s.computes*1000 + s.transfers
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for i := range serial {
			if serial[i] != got[i] {
				t.Fatalf("workers=%d: ticker %d ticks %d, serial %d", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestNodeStateParityProtocol(t *testing.T) {
	var st NodeState
	// Wake(5) arms both phases of cycle 5.
	st.Wake(5)
	if !st.runnable(phaseCounter(5, PhaseCompute)) || !st.runnable(phaseCounter(5, PhaseTransfer)) {
		t.Fatal("Wake(5) did not arm both phases of cycle 5")
	}
	if st.runnable(phaseCounter(6, PhaseCompute)) {
		t.Fatal("Wake(5) armed cycle 6")
	}
	// Arming during (5, compute) targets (5, transfer); arming during
	// (5, transfer) targets (6, compute).
	st.ArmNext(5, PhaseCompute)
	if !st.runnable(phaseCounter(5, PhaseTransfer)) {
		t.Fatal("ArmNext(5, compute) did not arm the same cycle's transfer")
	}
	st.ArmNext(5, PhaseTransfer)
	if !st.runnable(phaseCounter(6, PhaseCompute)) {
		t.Fatal("ArmNext(5, transfer) did not arm the next cycle's compute")
	}
	// Wake never regresses a slot that is already armed further ahead.
	st.Wake(3)
	if !st.runnable(phaseCounter(6, PhaseCompute)) {
		t.Fatal("Wake(3) regressed the armed-ahead slot")
	}
}
