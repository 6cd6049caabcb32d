package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTime is an injected barrier clock: every read advances it by step,
// so a waiter's notion of elapsed time is a count of its own clock reads.
type fakeTime struct {
	reads atomic.Int64
	step  int64
}

func (f *fakeTime) now() int64 { return f.reads.Add(1) * f.step }

// elapsed is the fake time between a waiter's first and latest read.
func (f *fakeTime) elapsed() time.Duration {
	return time.Duration((f.reads.Load() - 1) * f.step)
}

// barrierPair builds a two-party barrier on the fake clock and the given
// progress source, with GOMAXPROCS pinned to procs for the test.
func barrierPair(t *testing.T, procs int, progress func() uint64) (*phaseBarrier, *fakeTime) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ft := &fakeTime{step: int64(time.Microsecond)}
	b := newPhaseBarrier(2, progress)
	t.Cleanup(b.close)
	b.now = ft.now
	return b, ft
}

// startWaiter runs participant 0's await on its own goroutine; the
// returned channel closes when the barrier releases it.
func startWaiter(b *phaseBarrier) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		b.await(0)
		close(done)
	}()
	return done
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func released(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the last arrival did not release the waiter")
	}
}

// A straggler that keeps ticking nodes for ten stall windows never makes
// the waiter park: the imbalance is absorbed by the spin.
func TestBarrierSpinsWhileStragglerProgresses(t *testing.T) {
	var ticked atomic.Uint64
	b, ft := barrierPair(t, 2, func() uint64 { return ticked.Add(1) })
	done := startWaiter(b)
	waitUntil(t, "ten stall windows of progress", func() bool {
		return ft.elapsed() >= 10*barrierStallWindow || b.slots[0].parks.Load() != 0
	})
	b.await(1)
	released(t, done)
	st := b.stats()[0]
	if st.Parks != 0 {
		t.Errorf("waiter parked %d time(s) while its partner was progressing", st.Parks)
	}
	if st.Waited < 10*barrierStallWindow {
		t.Errorf("waited %v past the first yield round, want >= %v", st.Waited, 10*barrierStallWindow)
	}
}

// A straggler whose progress has stopped makes the waiter park, but only
// once a whole stall window has passed; the last arrival's broadcast then
// releases it.
func TestBarrierParksOnStalledStraggler(t *testing.T) {
	b, ft := barrierPair(t, 2, func() uint64 { return 7 })
	done := startWaiter(b)
	waitUntil(t, "the waiter to park", func() bool { return b.slots[0].parks.Load() == 1 })
	if el := ft.elapsed(); el < barrierStallWindow {
		t.Errorf("parked after %v without progress, want >= %v", el, barrierStallWindow)
	}
	b.await(1)
	released(t, done)
	if st := b.stats(); st[0].Parks != 1 || st[1].Parks != 0 {
		t.Errorf("parks = %d/%d, want 1/0 (the last arrival never waits)", st[0].Parks, st[1].Parks)
	}
}

// A stall means a partner lost its CPU, so for barrierCrowdedHold after
// one the participant parks without spinning; once the hold has passed
// it spins on a progressing partner again.
func TestBarrierCrowdedHold(t *testing.T) {
	var stalled atomic.Bool
	var polled atomic.Uint64
	stalled.Store(true)
	b, ft := barrierPair(t, 2, func() uint64 {
		if stalled.Load() {
			return 0
		}
		return polled.Add(1)
	})
	parkedWait := func(what string, parks int64) {
		t.Helper()
		done := startWaiter(b)
		waitUntil(t, what, func() bool { return b.slots[0].parks.Load() == parks })
		b.await(1)
		released(t, done)
	}
	parkedWait("the stalled wait to park", 1)
	stalled.Store(false)
	parkedWait("the held wait to park", 2)
	if n := polled.Load(); n != 0 {
		t.Errorf("progress source read %d time(s) during the hold", n)
	}
	ft.reads.Add(int64(barrierCrowdedHold) / ft.step)
	at := ft.elapsed()
	done := startWaiter(b)
	waitUntil(t, "ten stall windows of progress after the hold", func() bool {
		return ft.elapsed()-at >= 10*barrierStallWindow || b.slots[0].parks.Load() != 2
	})
	b.await(1)
	released(t, done)
	if got := b.slots[0].parks.Load(); got != 2 {
		t.Errorf("the wait after the hold parked (%d parks, want 2)", got)
	}
}

// With more live participants than Ps, some participant is always
// waiting for a P, so a waiter never reads the progress source and parks
// after a single yield: at GOMAXPROCS=1, and when a second parallel
// executor shares the process's two Ps.
func TestBarrierNeverSpinsWhenCrowded(t *testing.T) {
	for _, tc := range []struct {
		name         string
		procs, other int
	}{
		{"GOMAXPROCS=1", 1, 0},
		{"two executors on two Ps", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.other > 0 {
				other := NewExecutor(&Clock{}, []Ticker{&countingTicker{}, &countingTicker{}}, tc.other)
				defer other.Close()
			}
			var polled atomic.Int64
			b, _ := barrierPair(t, tc.procs, func() uint64 { polled.Add(1); return 0 })
			done := startWaiter(b)
			waitUntil(t, "the waiter to park", func() bool { return b.slots[0].parks.Load() == 1 })
			b.await(1)
			released(t, done)
			if n := polled.Load(); n != 0 {
				t.Errorf("progress source read %d time(s)", n)
			}
		})
	}
}

// Closing an executor retires its participants, so a process that has
// finished its parallel runs spins again.
func TestExecutorCloseRetiresParties(t *testing.T) {
	before := liveParties.Load()
	e := NewExecutor(&Clock{}, []Ticker{&countingTicker{}, &countingTicker{}, &countingTicker{}}, 3)
	if got := liveParties.Load() - before; got != 3 {
		t.Errorf("a 3-worker executor adds %d live parties, want 3", got)
	}
	e.Close()
	e.Close()
	if got := liveParties.Load(); got != before {
		t.Errorf("%d live parties after Close, want %d", got, before)
	}
}

func TestExecutorWaitStats(t *testing.T) {
	ts := make([]Ticker, 40)
	for i := range ts {
		ts[i] = &countingTicker{}
	}
	serial := NewExecutor(&Clock{}, ts, 1)
	serial.Run(5)
	serial.Close()
	if ws := serial.WaitStats(); ws != nil {
		t.Errorf("serial executor reports barrier accounting %v", ws)
	}
	par := NewExecutor(&Clock{}, ts, 3)
	par.Run(50)
	par.Close()
	if ws := par.WaitStats(); len(ws) != 3 {
		t.Errorf("3-worker executor reports %d participants, want 3", len(ws))
	}
	// 40 tickers in spans of 14/14/12: one progress store per partition
	// per phase.
	if sum, want := par.progressSum(), uint64(50*NumPhases*3); sum != want {
		t.Errorf("progress sum %d after 50 cycles, want %d", sum, want)
	}
}
