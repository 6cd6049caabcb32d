package obs

import (
	"reflect"
	"testing"
)

// flowEvents is a small deterministic stream touching three flows:
// inject (dst stashed in Slot), eject (src recovered from Pkt>>40) and
// setup-latency events, in an order that interleaves the flows.
func flowEvents() []Event {
	return []Event{
		{Kind: KindInject, Cycle: 1, Node: 0, Slot: 5, Val: 5, B: 1, Pkt: 0<<40 | 1},
		{Kind: KindInject, Cycle: 1, Node: 3, Slot: 7, Val: 5, Pkt: 3<<40 | 1},
		{Kind: KindInject, Cycle: 2, Node: 0, Slot: 5, Val: 5, Pkt: 0<<40 | 2},
		{Kind: KindSetupLatency, Cycle: 3, Node: 0, Slot: 5, B: 1, Val: 12},
		{Kind: KindSetupLatency, Cycle: 4, Node: 3, Slot: 7, B: 0},
		{Kind: KindEject, Cycle: 9, Node: 5, Val: 8, Pkt: 0<<40 | 1},
		{Kind: KindEject, Cycle: 11, Node: 7, Val: 9, Pkt: 3<<40 | 1},
		{Kind: KindInject, Cycle: 12, Node: 1, Slot: 0, Val: 3, Pkt: 1<<40 | 1},
	}
}

// TestFlowStatsShardInvariant pins the merge contract behind profile
// determinism: spreading the same events across 4 worker shards yields
// exactly the serial recorder's FlowStats.
func TestFlowStatsShardInvariant(t *testing.T) {
	serial := NewRecorder(RecorderConfig{Nodes: 16, TrackFlows: true})
	for _, e := range flowEvents() {
		serial.ControlHandle().Emit(e)
	}

	sharded := NewRecorder(RecorderConfig{Nodes: 16, Shards: 4, TrackFlows: true})
	handles := make([]*Handle, 4)
	for w := range handles {
		handles[w] = sharded.Handle(w)
	}
	for i, e := range flowEvents() {
		handles[i%4].Emit(e)
	}

	want := serial.FlowStats()
	got := sharded.FlowStats()
	if len(want) == 0 {
		t.Fatal("serial recorder tracked no flows")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sharded flow stats differ from serial:\n serial  %+v\n sharded %+v", want, got)
	}
}

func TestFlowStatsContents(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 16, TrackFlows: true})
	if !r.FlowTracking() {
		t.Fatal("FlowTracking false with TrackFlows set")
	}
	for _, e := range flowEvents() {
		r.ControlHandle().Emit(e)
	}
	flows := r.FlowStats()
	if len(flows) != 3 {
		t.Fatalf("tracked %d flows, want 3: %+v", len(flows), flows)
	}
	// Sorted by (Src, Dst): 0->5, 1->0, 3->7.
	f05 := flows[0]
	if f05.Src != 0 || f05.Dst != 5 {
		t.Fatalf("first flow = %d->%d", f05.Src, f05.Dst)
	}
	if f05.Packets != 2 || f05.Flits != 10 || f05.CSPackets != 1 {
		t.Errorf("0->5 inject counters = %+v", f05)
	}
	if f05.Ejected != 1 || f05.LatencySum != 8 {
		t.Errorf("0->5 eject counters = %+v", f05)
	}
	if f05.SetupsOK != 1 || f05.SetupLatencySum != 12 || f05.SetupsFailed != 0 {
		t.Errorf("0->5 setup counters = %+v", f05)
	}
	f37 := flows[2]
	if f37.Src != 3 || f37.Dst != 7 || f37.SetupsFailed != 1 || f37.SetupsOK != 0 {
		t.Errorf("3->7 = %+v", f37)
	}
}

func TestFlowStatsDisabled(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 4})
	if r.FlowTracking() {
		t.Fatal("FlowTracking true without TrackFlows")
	}
	r.ControlHandle().Emit(Event{Kind: KindInject, Cycle: 1, Node: 0, Slot: 1, Val: 5})
	if got := r.FlowStats(); got != nil {
		t.Errorf("FlowStats without tracking = %+v, want nil", got)
	}
	// Aggregates still count.
	if r.Summary().Injected != 1 {
		t.Error("inject not aggregated with tracking off")
	}
}

func TestShardDrops(t *testing.T) {
	r := NewRecorder(RecorderConfig{Nodes: 1, Shards: 2, RingCapacity: 8})
	h := r.Handle(1)
	for i := 0; i < 20; i++ {
		h.Emit(Event{Kind: KindInject, Cycle: int64(i)})
	}
	drops := r.ShardDrops()
	if len(drops) != 2 {
		t.Fatalf("ShardDrops len = %d, want 2", len(drops))
	}
	if drops[0] != 0 || drops[1] != 12 {
		t.Errorf("drops = %v, want [0 12]", drops)
	}
	if r.Dropped() != 12 {
		t.Errorf("Dropped() = %d, want 12", r.Dropped())
	}
	sum := r.Summary()
	if sum.RingDrops != 12 {
		t.Errorf("summary drops = %d, want 12", sum.RingDrops)
	}
}
