package hybrid

import (
	"testing"
	"testing/quick"

	"tdmnoc/internal/topology"
)

func TestSlotTableBasics(t *testing.T) {
	rt := NewRouterTables(8, 8)
	if rt.Capacity() != 8 || rt.Active() != 8 || rt.ReservedEntries() != 0 {
		t.Fatalf("fresh tables: cap=%d active=%d reserved=%d", rt.Capacity(), rt.Active(), rt.ReservedEntries())
	}
	if !rt.Reserve(topology.North, topology.East, 3, 1, 0) {
		t.Fatal("Reserve on empty slot failed")
	}
	if rt.Reserve(topology.North, topology.West, 3, 1, 0) {
		t.Fatal("Reserve on taken slot succeeded")
	}
	if out, ok := rt.LookupSlot(topology.North, 3, 0); !ok || out != topology.East {
		t.Fatalf("LookupSlot(3) = (%v,%v)", out, ok)
	}
	if _, ok := rt.LookupSlot(topology.North, 4, 0); ok {
		t.Fatal("LookupSlot(4) valid on empty slot")
	}
	if _, ok := rt.LookupSlot(topology.South, 3, 0); ok {
		t.Fatal("another input's entry visible")
	}
	if out, ok := rt.Release(topology.North, 3, 1, 0); !ok || out != topology.East {
		t.Fatalf("Release(3) = (%v,%v)", out, ok)
	}
	if _, ok := rt.Release(topology.North, 3, 1, 0); ok {
		t.Fatal("double Release succeeded")
	}
	if rt.ReservedEntries() != 0 {
		t.Fatalf("reserved count %d after release", rt.ReservedEntries())
	}
}

func TestSlotTableGraceWindow(t *testing.T) {
	rt := NewRouterTables(8, 8)
	rt.Reserve(topology.North, topology.West, 2, 1, 100)
	rt.Release(topology.North, 2, 1, 100)
	// During the grace window the entry still routes and still holds its
	// output, but neither can be re-reserved.
	end := int64(100 + GracePeriod)
	if out, ok := rt.LookupSlot(topology.North, 2, end-1); !ok || out != topology.West {
		t.Fatalf("graced Lookup = (%v,%v)", out, ok)
	}
	if in, ok := rt.OutReservedAt(2+8*((end-1)/8), topology.West); !ok || in != topology.North {
		t.Fatalf("graced OutReservedAt = (%v,%v)", in, ok)
	}
	if rt.Reserve(topology.North, topology.East, 2, 1, end-1) {
		t.Fatal("input slot re-reserved inside grace window")
	}
	if rt.Reserve(topology.South, topology.West, 2, 1, end-1) {
		t.Fatal("output re-reserved inside grace window")
	}
	// After the window the slot is free again.
	if _, ok := rt.LookupSlot(topology.North, 2, end); ok {
		t.Fatal("expired grace entry still routes")
	}
	if !rt.Reserve(topology.South, topology.West, 2, 1, end) || !rt.Reserve(topology.North, topology.East, 2, 1, end) {
		t.Fatal("Reserve failed after grace expiry")
	}
}

func TestNewSlotTablePanics(t *testing.T) {
	for _, c := range []struct{ cap, act int }{{0, 0}, {8, 0}, {8, 9}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRouterTables(%d,%d) did not panic", c.cap, c.act)
				}
			}()
			NewRouterTables(c.cap, c.act)
		}()
	}
	for _, active := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(%d) on capacity 16 did not panic", active)
				}
			}()
			NewRouterTables(16, 8).Reset(active)
		}()
	}
}

func TestSlotTableOccupancyAndReset(t *testing.T) {
	rt := NewRouterTables(16, 8)
	rt.Reserve(topology.North, topology.East, 0, 2, 0)
	if rt.ReservedEntries() != 2 || rt.ActivePoweredEntries() != 8*int(topology.NumPorts) {
		t.Fatalf("reserved=%d powered=%d", rt.ReservedEntries(), rt.ActivePoweredEntries())
	}
	rt.Reset(16)
	if rt.Active() != 16 || rt.ReservedEntries() != 0 {
		t.Fatalf("after reset: active=%d reserved=%d", rt.Active(), rt.ReservedEntries())
	}
	if _, ok := rt.LookupSlot(topology.North, 0, 0); ok {
		t.Fatal("entry survived reset")
	}
}

// TestFigure1Scenario replays the exact slot-table state transitions of
// Fig. 1: three setup messages at a single router with slot tables of 4
// entries and two relevant input ports.
func TestFigure1Scenario(t *testing.T) {
	rt := NewRouterTables(4, 4)
	in1, in2 := topology.North, topology.South
	out3, out4 := topology.East, topology.West // stand-ins for "out_3"/"out_4"

	// setup1: in_1 -> out_4, slot s3, duration 2. Succeeds; reservation
	// wraps modulo S so s3 and s0 are taken.
	if !rt.Reserve(in1, out4, 3, 2, 0) {
		t.Fatal("setup1 should succeed on empty tables")
	}
	if out, ok := rt.LookupSlot(in1, 3, 0); !ok || out != out4 {
		t.Fatalf("s3 on in_1 = (%v,%v), want out_4", out, ok)
	}
	if out, ok := rt.LookupSlot(in1, 0, 0); !ok || out != out4 {
		t.Fatalf("s0 on in_1 = (%v,%v), want out_4 (modulo wrap)", out, ok)
	}

	// setup2: in_1 -> out_3, slot s3, duration 1. Fails: slot already
	// allocated on that input. Tables unchanged.
	if rt.Reserve(in1, out3, 3, 1, 0) {
		t.Fatal("setup2 should fail: input slot taken")
	}
	if out, _ := rt.LookupSlot(in1, 3, 0); out != out4 {
		t.Fatal("failed setup2 modified the table")
	}

	// setup3: in_2 -> out_4, slot s3, duration 1. Fails: out_4 is already
	// reserved for in_1 at s3 (output conflict).
	if rt.Reserve(in2, out4, 3, 1, 0) {
		t.Fatal("setup3 should fail: output port conflict")
	}
	if _, ok := rt.LookupSlot(in2, 3, 0); ok {
		t.Fatal("failed setup3 left a reservation on in_2")
	}

	// Teardown: releasing setup1 frees both slots for reuse (after the
	// release grace window).
	if out, ok := rt.Release(in1, 3, 2, 0); !ok || out != out4 {
		t.Fatalf("release = (%v,%v)", out, ok)
	}
	if !rt.Reserve(in2, out4, 3, 1, GracePeriod) {
		t.Fatal("slot not reusable after teardown grace")
	}
}

func TestRouterTablesOutputConflictAcrossInputs(t *testing.T) {
	rt := NewRouterTables(8, 8)
	if !rt.Reserve(topology.North, topology.East, 2, 4, 0) {
		t.Fatal("first reservation failed")
	}
	// Overlapping slots, same output, different input: must fail.
	if rt.Reserve(topology.South, topology.East, 4, 2, 0) {
		t.Fatal("output double-booked")
	}
	// Same slots, different output: fine.
	if !rt.Reserve(topology.South, topology.West, 2, 4, 0) {
		t.Fatal("independent output rejected")
	}
}

func TestRouterTablesReserveCap(t *testing.T) {
	rt := NewRouterTables(10, 10)
	rt.ReserveCap = 0.5
	if !rt.Reserve(topology.North, topology.East, 0, 5, 0) {
		t.Fatal("reservation within cap failed")
	}
	// Input table is now at 50 %; one more slot would exceed the cap.
	if rt.Reserve(topology.North, topology.West, 6, 1, 0) {
		t.Fatal("reservation above cap succeeded")
	}
	// Another input port has its own budget.
	if !rt.Reserve(topology.South, topology.West, 6, 1, 0) {
		t.Fatal("other input should have headroom")
	}
}

func TestRouterTablesLookupByCycle(t *testing.T) {
	rt := NewRouterTables(8, 8)
	rt.Reserve(topology.West, topology.Local, 5, 1, 0)
	if out, ok := rt.Lookup(topology.West, 5); !ok || out != topology.Local {
		t.Fatalf("cycle 5 lookup = (%v,%v)", out, ok)
	}
	if out, ok := rt.Lookup(topology.West, 13); !ok || out != topology.Local {
		t.Fatalf("cycle 13 (mod 8 = 5) lookup = (%v,%v)", out, ok)
	}
	if _, ok := rt.Lookup(topology.West, 6); ok {
		t.Fatal("unreserved cycle looked up valid")
	}
}

func TestOutReservedAt(t *testing.T) {
	rt := NewRouterTables(8, 8)
	rt.Reserve(topology.North, topology.East, 3, 2, 0)
	if in, ok := rt.OutReservedAt(3, topology.East); !ok || in != topology.North {
		t.Fatalf("OutReservedAt(3,East) = (%v,%v)", in, ok)
	}
	if _, ok := rt.OutReservedAt(3, topology.West); ok {
		t.Fatal("West reported reserved")
	}
	if _, ok := rt.OutReservedAt(5, topology.East); ok {
		t.Fatal("slot 5 reported reserved")
	}
}

func TestReleasePartialAndInvalid(t *testing.T) {
	rt := NewRouterTables(8, 8)
	if _, ok := rt.Release(topology.North, 0, 4, 0); ok {
		t.Fatal("release of empty table succeeded")
	}
	rt.Reserve(topology.North, topology.East, 6, 4, 0) // wraps: slots 6,7,0,1
	out, ok := rt.Release(topology.North, 6, 4, 0)
	if !ok || out != topology.East {
		t.Fatalf("release = (%v,%v)", out, ok)
	}
	if rt.ReservedEntries() != 0 {
		t.Fatalf("%d entries left after full release", rt.ReservedEntries())
	}
	// Graced slots still route CS flits until the window closes.
	if o, routes := rt.Lookup(topology.North, 6); !routes || o != topology.East {
		t.Fatal("graced slots stopped routing immediately")
	}
	if _, routes := rt.Lookup(topology.North, 6+GracePeriod+8); routes {
		t.Fatal("graced slot still routes after expiry")
	}
}

func TestDurationAt(t *testing.T) {
	rt := NewRouterTables(16, 16)
	rt.Reserve(topology.North, topology.East, 3, 5, 0)
	if d := rt.DurationAt(topology.North, 3, 0); d != 5 {
		t.Fatalf("DurationAt = %d, want 5", d)
	}
	if d := rt.DurationAt(topology.North, 9, 0); d != 0 {
		t.Fatalf("DurationAt on free slot = %d, want 0", d)
	}
}

func TestRouterTablesResetAndResize(t *testing.T) {
	rt := NewRouterTables(16, 8)
	rt.Reserve(topology.North, topology.East, 1, 4, 0)
	rt.Reset(16)
	if rt.Active() != 16 || rt.ReservedEntries() != 0 {
		t.Fatalf("after reset: active=%d reserved=%d", rt.Active(), rt.ReservedEntries())
	}
	if rt.ActivePoweredEntries() != 16*int(topology.NumPorts) {
		t.Fatalf("powered entries %d", rt.ActivePoweredEntries())
	}
	// Reset also wipes grace state.
	rt.Reserve(topology.North, topology.East, 1, 4, 0)
	rt.Release(topology.North, 1, 4, 0)
	rt.Reset(16)
	if !rt.Reserve(topology.South, topology.East, 1, 4, 0) {
		t.Fatal("grace survived reset")
	}
}

func TestReserveReleaseRoundTripProperty(t *testing.T) {
	// Property: any successful Reserve followed by Release restores a
	// table that accepts the same reservation once the grace expires.
	f := func(slot8, dur8, in8, out8 uint8) bool {
		rt := NewRouterTables(16, 16)
		in := topology.Port(in8 % uint8(topology.NumPorts))
		out := topology.Port(out8 % uint8(topology.NumPorts))
		slot := int(slot8 % 16)
		dur := int(dur8%6) + 1
		if !rt.Reserve(in, out, slot, dur, 0) {
			return true // occupancy cap can reject large dur; fine
		}
		if rt.ReservedEntries() != dur {
			return false
		}
		if _, ok := rt.Release(in, slot, dur, 0); !ok {
			return false
		}
		if rt.ReservedEntries() != 0 {
			return false
		}
		return rt.Reserve(in, out, slot, dur, GracePeriod)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
