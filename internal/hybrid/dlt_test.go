package hybrid

import (
	"testing"

	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

func TestDLTUpdateAndFind(t *testing.T) {
	d := NewDLT(4)
	if d.Size() != 4 {
		t.Fatalf("size %d", d.Size())
	}
	d.Update(7, 12, 4, topology.West)
	e, ok := d.Find(7)
	if !ok || e.Slot != 12 || e.Dur != 4 || e.In != topology.West {
		t.Fatalf("Find(7) = %+v, %v", e, ok)
	}
	if _, ok := d.Find(8); ok {
		t.Fatal("found absent destination")
	}
	// Update of existing destination refreshes in place.
	d.Update(7, 20, 5, topology.North)
	e, _ = d.Find(7)
	if e.Slot != 20 || e.Dur != 5 || e.In != topology.North {
		t.Fatalf("refresh failed: %+v", e)
	}
}

func TestDLTEvictsOldest(t *testing.T) {
	d := NewDLT(2)
	d.Update(1, 0, 4, topology.North)
	d.Update(2, 1, 4, topology.North)
	d.Update(3, 2, 4, topology.North) // evicts dest 1
	if _, ok := d.Find(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := d.Find(2); !ok {
		t.Fatal("newer entry evicted")
	}
	if _, ok := d.Find(3); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestDLTDefaultSize(t *testing.T) {
	if NewDLT(0).Size() != tablei.DLTEntries {
		t.Fatal("default size not applied")
	}
}

func TestDLTSaturatingFailureCounter(t *testing.T) {
	d := NewDLT(4)
	d.Update(5, 0, 4, topology.East)
	if d.RecordFailure(5) {
		t.Fatal("counter saturated after one failure")
	}
	if !d.RecordFailure(5) {
		t.Fatal("counter did not saturate at '10' (two failures)")
	}
	if _, ok := d.Find(5); ok {
		t.Fatal("saturated entry not removed")
	}
	// Failure on an absent destination is a no-op.
	if d.RecordFailure(99) {
		t.Fatal("failure on absent entry saturated")
	}
}

func TestDLTSuccessDecaysCounter(t *testing.T) {
	d := NewDLT(4)
	d.Update(5, 0, 4, topology.East)
	d.RecordFailure(5)
	d.RecordSuccess(5)
	// One failure then one success: the next failure should not saturate.
	if d.RecordFailure(5) {
		t.Fatal("counter saturated despite success decay")
	}
}

func TestDLTFindAdjacent(t *testing.T) {
	m := topology.NewMesh(4, 4)
	d := NewDLT(4)
	d.Update(5, 3, 4, topology.West) // node 5 = (1,1)
	if e, ok := d.FindAdjacent(m, 6); !ok || e.Dest != 5 {
		t.Fatalf("adjacent lookup for 6 = %+v, %v", e, ok)
	}
	if _, ok := d.FindAdjacent(m, 10); ok {
		t.Fatal("diagonal node matched as adjacent") // 10 = (2,2)
	}
	// The exact destination is not "adjacent" to itself.
	if _, ok := d.FindAdjacent(m, 5); ok {
		t.Fatal("exact destination matched as adjacent")
	}
}

func TestDLTRemoveAndReset(t *testing.T) {
	d := NewDLT(4)
	d.Update(1, 0, 4, topology.North)
	d.Update(2, 0, 4, topology.North)
	d.Remove(1)
	if _, ok := d.Find(1); ok {
		t.Fatal("Remove failed")
	}
	d.Reset()
	if _, ok := d.Find(2); ok {
		t.Fatal("Reset failed")
	}
}

func TestVCGateAdjusts(t *testing.T) {
	g := DefaultVCGate(4)
	if g.Active() != 4 {
		t.Fatalf("initial active %d", g.Active())
	}
	// Low utilisation: one VC gated off per step until MinVCs.
	for step := 0; step < 10; step++ {
		for i := 0; i < 100; i++ {
			g.Observe(0)
		}
		g.Step()
	}
	if g.Active() != minVCs {
		t.Fatalf("active %d after sustained idle, want %d", g.Active(), minVCs)
	}
	// High utilisation: VCs come back.
	for i := 0; i < 100; i++ {
		g.Observe(g.Active()) // fully busy
	}
	if active, changed := g.Step(); !changed || active != minVCs+1 {
		t.Fatalf("step under load = (%d,%v)", active, changed)
	}
}

func TestVCGateStableInBand(t *testing.T) {
	g := DefaultVCGate(4)
	// Utilisation between the thresholds: no change.
	for i := 0; i < 100; i++ {
		g.Observe(2) // mu = 0.5 with 4 active
	}
	if active, changed := g.Step(); changed || active != 4 {
		t.Fatalf("in-band step = (%d,%v)", active, changed)
	}
}

func TestVCGateNoObservationsNoChange(t *testing.T) {
	g := DefaultVCGate(4)
	if _, changed := g.Step(); changed {
		t.Fatal("step with no observations changed state")
	}
}

func TestVCGateSetActiveClamps(t *testing.T) {
	g := DefaultVCGate(4)
	g.SetActive(0)
	if g.Active() != minVCs {
		t.Fatalf("clamp low: %d", g.Active())
	}
	g.SetActive(99)
	if g.Active() != g.maxVCs {
		t.Fatalf("clamp high: %d", g.Active())
	}
}

func TestResizerDoublesOnConsecutiveFailures(t *testing.T) {
	r := DefaultResizer(128)
	if r.Active() != 16 {
		t.Fatalf("initial active %d, want 16", r.Active())
	}
	// Failures below the threshold, broken by a success: no resize.
	for i := 0; i < failThreshold-1; i++ {
		if _, resized := r.RecordSetupResultAt(false, 0); resized {
			t.Fatal("resized too early")
		}
	}
	r.RecordSetupResultAt(true, 0)
	for i := 0; i < failThreshold-1; i++ {
		if _, resized := r.RecordSetupResultAt(false, 0); resized {
			t.Fatal("resized after counter reset")
		}
	}
	// One more consecutive failure triggers the doubling.
	active, resized := r.RecordSetupResultAt(false, 0)
	if !resized || active != 32 {
		t.Fatalf("resize = (%d,%v), want (32,true)", active, resized)
	}
	if r.ResizeEvents() != 1 {
		t.Fatalf("resize events %d", r.ResizeEvents())
	}
}

func TestResizerCapsAtCapacity(t *testing.T) {
	r := DefaultResizer(32)
	for i := 0; i < 1000; i++ {
		r.RecordSetupResultAt(false, 0)
	}
	if r.Active() != 32 {
		t.Fatalf("active %d, want capacity 32", r.Active())
	}
}

func TestFixedResizerNeverResizes(t *testing.T) {
	r := FixedResizer(128)
	if r.Active() != 128 {
		t.Fatalf("fixed resizer active %d", r.Active())
	}
	for i := 0; i < 10000; i++ {
		if _, resized := r.RecordSetupResultAt(false, 0); resized {
			t.Fatal("fixed resizer resized")
		}
	}
}

func TestDefaultResizerSmallCapacity(t *testing.T) {
	r := DefaultResizer(4)
	if r.Active() != 4 {
		t.Fatalf("small-capacity initial active %d, want 4", r.Active())
	}
}

func TestLatencyVCGateGrowsUnderDelay(t *testing.T) {
	g := DefaultLatencyVCGate(4)
	g.SetActiveForTest(2)
	for i := 0; i < 50; i++ {
		g.ObserveDelay(20) // far above target
	}
	if active, changed := g.Step(); !changed || active != 3 {
		t.Fatalf("step under delay = (%d,%v), want (3,true)", active, changed)
	}
}

func TestLatencyVCGateShrinksWhenFast(t *testing.T) {
	g := DefaultLatencyVCGate(4)
	for i := 0; i < 50; i++ {
		g.ObserveDelay(1) // well below target
	}
	if active, changed := g.Step(); !changed || active != 3 {
		t.Fatalf("step when fast = (%d,%v), want (3,true)", active, changed)
	}
}

func TestLatencyVCGateIdleDecays(t *testing.T) {
	g := DefaultLatencyVCGate(4)
	for i := 0; i < 10; i++ {
		g.Step()
	}
	if g.Active() != minVCs {
		t.Fatalf("idle gate at %d VCs, want %d", g.Active(), minVCs)
	}
}

func TestLatencyVCGateStableInBand(t *testing.T) {
	g := DefaultLatencyVCGate(4)
	for i := 0; i < 50; i++ {
		g.ObserveDelay(4) // exactly on target
	}
	if _, changed := g.Step(); changed {
		t.Fatal("in-band delay changed VC count")
	}
}
