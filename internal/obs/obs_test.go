package obs

import (
	"testing"

	"tdmnoc/internal/topology"
)

// ringEvents copies the ring's live events, oldest first.
func ringEvents(r *Ring) []Event {
	var out []Event
	r.Do(func(e Event) { out = append(out, e) })
	return out
}

func TestRingDropOldest(t *testing.T) {
	// A requested capacity of 3 rounds UP to the power of two 4; drop
	// order across the wrap boundary is still strictly oldest-first.
	r := NewRing(3)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4 (rounded up to a power of two)", r.Cap())
	}
	for i := 0; i < 6; i++ {
		r.Push(Event{Cycle: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
	snap := ringEvents(r)
	for i, e := range snap {
		if want := int64(i + 2); e.Cycle != want {
			t.Errorf("snapshot[%d].Cycle = %d, want %d (oldest-first after drops)", i, e.Cycle, want)
		}
	}
	var got []int64
	r.Do(func(e Event) { got = append(got, e.Cycle) })
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Errorf("Do order = %v, want [2 3 4 5]", got)
	}
}

// TestRingPowerOfTwoRounding pins the construction contract: capacities
// round up to the next power of two (never down — drop-free sizing may
// only gain headroom), and drop semantics at the exact boundary are
// unchanged from an exact-power request.
func TestRingPowerOfTwoRounding(t *testing.T) {
	cases := []struct{ req, want int }{
		{-5, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{63, 64}, {64, 64}, {65, 128}, {1 << 16, 1 << 16}, {1<<16 + 1, 1 << 17},
	}
	for _, c := range cases {
		if got := NewRing(c.req).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.req, got, c.want)
		}
	}

	// Across the rounding boundary (request 5 -> cap 8): exactly Cap()
	// newest events survive, oldest-first, and drops count the excess.
	r := NewRing(5)
	for i := 0; i < 11; i++ {
		r.Push(Event{Cycle: int64(i)})
	}
	if r.Len() != 8 || r.Dropped() != 3 {
		t.Fatalf("len/dropped = %d/%d, want 8/3", r.Len(), r.Dropped())
	}
	for i, e := range ringEvents(r) {
		if want := int64(i + 3); e.Cycle != want {
			t.Errorf("snapshot[%d].Cycle = %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestRingCapacityClamp(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", r.Cap())
	}
	r.Push(Event{Cycle: 1})
	r.Push(Event{Cycle: 2})
	if got := ringEvents(r); len(got) != 1 || got[0].Cycle != 2 {
		t.Errorf("1-cap ring kept %v", got)
	}
}

// TestRecorderCloseReleasesRings: a closed recorder's rings read as
// empty and keep their drop counts, a second Close is a no-op, and an
// emit into a released ring panics instead of writing anywhere.
func TestRecorderCloseReleasesRings(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 4, RingCapacity: 4, Shards: 2})
	h := r.Handle(1)
	for i := 0; i < 6; i++ {
		h.Emit(Event{Cycle: int64(i), Kind: KindInject})
	}
	if got, want := r.RingBytes(), 2*4*eventBytes; got != want {
		t.Fatalf("RingBytes = %d, want %d", got, want)
	}
	for range 2 {
		r.Close()
		if r.RingBytes() != 0 || r.Dropped() != 2 || r.Events() != 6 {
			t.Errorf("closed: RingBytes %d, Dropped %d, Events %d; want 0, 2, 6", r.RingBytes(), r.Dropped(), r.Events())
		}
		for i, ring := range r.Rings() {
			if ring.Len() != 0 || ring.Cap() != 0 || len(ringEvents(ring)) != 0 {
				t.Errorf("closed ring %d: Len %d, Cap %d, %d events visited", i, ring.Len(), ring.Cap(), len(ringEvents(ring)))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Emit into a released ring did not panic")
		}
	}()
	h.Emit(Event{Kind: KindInject})
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(8)    // first bucket boundary is inclusive
	h.Observe(9)    // next bucket
	h.Observe(2000) // overflow
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[len(LatencyBuckets)] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total != 3 || h.Sum != 8+9+2000 {
		t.Errorf("total/sum = %d/%d", h.Total, h.Sum)
	}
}

func TestRecorderCountersAndWindows(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 4, SampleEvery: 10})
	h := r.ControlHandle()
	// Window 1: one CS and one PS link traversal, a steal, a successful
	// setup, and gauge emissions.
	h.Emit(Event{Kind: KindInject, Cycle: 1, Pkt: 1})
	h.Emit(Event{Kind: KindLinkTraverse, Cycle: 2, Node: 0, A: uint8(topology.East), B: 1, Pkt: 1})
	h.Emit(Event{Kind: KindLinkTraverse, Cycle: 3, Node: 1, A: uint8(topology.Local), B: 0, Pkt: 1})
	h.Emit(Event{Kind: KindSlotSteal, Cycle: 4, Node: 0})
	h.Emit(Event{Kind: KindSetupLatency, Cycle: 5, B: 1, Val: 12})
	h.Emit(Event{Kind: KindSetupLatency, Cycle: 5, B: 0})
	h.Emit(Event{Kind: KindVCOccupancy, Cycle: 10, Val: 7})
	h.Emit(Event{Kind: KindQueueDepth, Cycle: 10, Val: 3})
	h.Emit(Event{Kind: KindEject, Cycle: 9, Pkt: 1, Val: 8})
	for now := int64(1); now <= 10; now++ {
		r.Sync(now)
	}
	// Window 2: empty.
	for now := int64(11); now <= 20; now++ {
		r.Sync(now)
	}

	sum := r.Summary()
	if sum.Injected != 1 || sum.Ejected != 1 {
		t.Errorf("injected/ejected = %d/%d", sum.Injected, sum.Ejected)
	}
	if sum.CSFlits != 1 || sum.PSFlits != 1 || sum.Steals != 1 {
		t.Errorf("cs/ps/steals = %d/%d/%d", sum.CSFlits, sum.PSFlits, sum.Steals)
	}
	if sum.SetupsOK != 1 || sum.SetupsFailed != 1 {
		t.Errorf("setups ok/fail = %d/%d", sum.SetupsOK, sum.SetupsFailed)
	}
	if sum.SetupLatency.Total != 1 || sum.SetupLatency.Sum != 12 {
		t.Errorf("setup histogram = %+v (failed setups must not be observed)", sum.SetupLatency)
	}
	if sum.Cycles != 20 || sum.Events != 9 {
		t.Errorf("cycles/events = %d/%d", sum.Cycles, sum.Events)
	}
	if r.LinkFlits(0, topology.East) != 1 || r.LinkFlits(1, topology.Local) != 1 {
		t.Error("link accounting wrong")
	}

	samples := r.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	w1, w2 := samples[0], samples[1]
	if w1.Cycle != 10 || w1.CSFlits != 1 || w1.PSFlits != 1 || w1.Steals != 1 {
		t.Errorf("window 1 = %+v", w1)
	}
	if w1.SetupsOK != 1 || w1.SetupsFailed != 1 || w1.BufferedFlits != 7 || w1.NIQueued != 3 {
		t.Errorf("window 1 gauges = %+v", w1)
	}
	if w2.Cycle != 20 || w2.CSFlits != 0 || w2.BufferedFlits != 0 {
		t.Errorf("window 2 not reset: %+v", w2)
	}
}

func TestRecorderEnergyDelta(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 1, SampleEvery: 10})
	h := r.ControlHandle()
	// Energy emissions carry cumulative readings; windows report deltas.
	h.Emit(Event{Kind: KindEnergySample, Cycle: 10, Val: 500})
	r.Sync(10)
	h.Emit(Event{Kind: KindEnergySample, Cycle: 20, Val: 800})
	r.Sync(20)
	// A window with no emission reports zero, not a negative delta.
	r.Sync(30)
	s := r.Samples()
	if len(s) != 3 || s[0].EnergyMilliPJ != 500 || s[1].EnergyMilliPJ != 300 || s[2].EnergyMilliPJ != 0 {
		t.Errorf("energy deltas = %+v", s)
	}
}

func TestRecorderSampleEviction(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 1, SampleEvery: 1})
	for now := int64(1); now <= maxSamples+6; now++ {
		r.Sync(now)
	}
	s := r.Samples()
	if len(s) != maxSamples {
		t.Fatalf("samples = %d, want %d", len(s), maxSamples)
	}
	if s[0].Cycle != 7 || s[maxSamples-1].Cycle != maxSamples+6 {
		t.Errorf("oldest windows not evicted: %+v", s)
	}
}

// TestEmitAndSyncAllocFree pins the enabled-path guarantee: once the
// recorder is built, neither Emit nor Sync allocates — including when
// the ring wraps and when a window closes.
func TestEmitAndSyncAllocFree(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 4, RingCapacity: 64, SampleEvery: 2})
	h := r.ControlHandle()
	e := Event{Kind: KindLinkTraverse, Node: 1, A: 2, B: 1, Pkt: 42, Cycle: 7}
	if a := testing.AllocsPerRun(1000, func() { h.Emit(e) }); a != 0 {
		t.Errorf("Emit allocates %.1f per call, want 0", a)
	}
	now := int64(0)
	if a := testing.AllocsPerRun(1000, func() { now++; r.Sync(now) }); a != 0 {
		t.Errorf("Sync allocates %.1f per call, want 0", a)
	}
}
