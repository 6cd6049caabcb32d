package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"tdmnoc/internal/topology"
)

type traceFile struct {
	TraceEvents []struct {
		Ph   string          `json:"ph"`
		Pid  int             `json:"pid"`
		Tid  int64           `json:"tid"`
		Ts   int64           `json:"ts"`
		Dur  int64           `json:"dur"`
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		ID   string          `json:"id"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func writeTestTrace(t *testing.T, events []Event) (traceFile, []byte) {
	t.Helper()
	ring := NewRing(len(events) + 1)
	for _, e := range events {
		ring.Push(e)
	}
	var buf bytes.Buffer
	meta := TraceMeta{Width: 2, Height: 2, OtherData: map[string]string{"mode": "tdm", "seed": "1"}}
	if err := WriteTrace(&buf, []*Ring{ring}, meta); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return tf, buf.Bytes()
}

func TestWriteTraceFormat(t *testing.T) {
	events := []Event{
		{Kind: KindInject, Cycle: 5, Node: 0, Pkt: 7, Seq: 0, Val: 4},
		{Kind: KindLinkTraverse, Cycle: 6, Node: 0, A: 2, B: 1, Pkt: 7, Seq: 0},
		{Kind: KindLinkTraverse, Cycle: 7, Node: 1, A: 0, B: 1, Pkt: 7, Seq: 0},
		{Kind: KindVCOccupancy, Cycle: 8, Node: 2, Val: 5},
		{Kind: KindSlotResize, Cycle: 9, Node: -1, Val: 8},
		{Kind: KindEject, Cycle: 10, Node: 1, Pkt: 7, Seq: 0, Val: 5},
	}
	tf, raw := writeTestTrace(t, events)

	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if tf.OtherData["mode"] != "tdm" || tf.OtherData["seed"] != "1" {
		t.Errorf("otherData = %v", tf.OtherData)
	}

	var metas, slices, counters, flows int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			slices++
			if e.Dur != 1 {
				t.Errorf("slice %s dur = %d, want 1", e.Name, e.Dur)
			}
		case "C":
			counters++
			var args struct {
				V int64 `json:"v"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil || args.V != 5 {
				t.Errorf("counter args = %s", e.Args)
			}
		case "s", "t", "f":
			flows++
			if e.Name != "pkt" || e.Cat != "flow" || e.ID != "0x7" {
				t.Errorf("flow event %+v malformed", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// 2 process names + 2*4 thread names + 1 global thread.
	if metas != 11 {
		t.Errorf("metadata events = %d, want 11", metas)
	}
	if slices != 5 || counters != 1 {
		t.Errorf("slices/counters = %d/%d, want 5/1", slices, counters)
	}
	// inject starts the flow, second link hop continues it, eject ends it
	// (the first link hop is on the same node+cycle+1 as the start).
	if flows != 4 {
		t.Errorf("flow events = %d, want 4", flows)
	}

	// The network-global resize event lands on the dedicated global track.
	found := false
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Name == "slot-resize" {
			found = true
			if e.Tid != globalTID || e.Pid != pidRouters {
				t.Errorf("global event on pid/tid %d/%d", e.Pid, e.Tid)
			}
		}
	}
	if !found {
		t.Error("slot-resize slice missing")
	}

	// Finish flag: the "f" event must bind to the enclosing slice.
	if !bytes.Contains(raw, []byte(`"bp":"e"`)) {
		t.Error(`flow finish lacks "bp":"e"`)
	}
}

// TestWriteTraceFlowPairing: no duplicate starts, no continue/finish
// before a start, and packets whose first sighting is not their
// injection (ring truncation) get no flow events at all.
func TestWriteTraceFlowPairing(t *testing.T) {
	events := []Event{
		{Kind: KindEject, Cycle: 1, Node: 0, Pkt: 99},               // unseen: no flow
		{Kind: KindLinkTraverse, Cycle: 2, Node: 0, Pkt: 5},         // truncated: inject dropped
		{Kind: KindLinkTraverse, Cycle: 3, Node: 1, Pkt: 5},         // still no flow
		{Kind: KindEject, Cycle: 4, Node: 1, Pkt: 5},                // still no flow
		{Kind: KindLinkTraverse, Cycle: 6, Node: 0, Pkt: 6, Seq: 1}, // body flit: no flow
		{Kind: KindInject, Cycle: 7, Node: 2, Pkt: 8},               // complete packet: flows
		{Kind: KindLinkTraverse, Cycle: 8, Node: 2, Pkt: 8},
		{Kind: KindEject, Cycle: 9, Node: 3, Pkt: 8},
		{Kind: KindLinkTraverse, Cycle: 10, Node: 1, Pkt: 8}, // after finish: ignored
	}
	tf, _ := writeTestTrace(t, events)

	state := map[string]int{} // id -> 0 unseen, 1 started, 2 finished
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "s":
			if state[e.ID] != 0 {
				t.Errorf("duplicate flow start for %s", e.ID)
			}
			state[e.ID] = 1
		case "t":
			if state[e.ID] != 1 {
				t.Errorf("flow continue for %s in state %d", e.ID, state[e.ID])
			}
		case "f":
			if state[e.ID] != 1 {
				t.Errorf("flow finish for %s in state %d", e.ID, state[e.ID])
			}
			state[e.ID] = 2
		}
	}
	if len(state) != 1 || state["0x8"] != 2 {
		t.Errorf("flow states = %v, want only 0x8 finished", state)
	}
}

// TestWriteTraceTruncatedFlowsSkippedAtomically is the regression test
// for the dangling-flow exporter bug: with a deliberately undersized
// ring that drops a packet's injection and first hops, the exporter must
// not stitch the surviving tail into a flow that begins mid-route —
// the packet's flow events are skipped as a unit, while a packet whose
// full trajectory survived still gets a complete s/t/f chain.
func TestWriteTraceTruncatedFlowsSkippedAtomically(t *testing.T) {
	var events []Event
	// Packet 1: full trajectory, emitted late enough to survive the ring.
	// Packet 2: its inject and first hop are emitted first, so the
	// undersized ring evicts exactly those.
	events = append(events,
		Event{Kind: KindInject, Cycle: 1, Node: 0, Pkt: 2},
		Event{Kind: KindLinkTraverse, Cycle: 2, Node: 0, A: 2, Pkt: 2},
	)
	for i := 0; i < 6; i++ { // filler slices to force the wrap
		events = append(events, Event{Kind: KindSwitchTraverse, Cycle: int64(3 + i), Node: 1, Pkt: 0})
	}
	events = append(events,
		Event{Kind: KindLinkTraverse, Cycle: 10, Node: 1, A: 2, Pkt: 2}, // survives, but truncated
		Event{Kind: KindInject, Cycle: 11, Node: 2, Pkt: 1},
		Event{Kind: KindLinkTraverse, Cycle: 12, Node: 2, A: 1, Pkt: 1},
		Event{Kind: KindEject, Cycle: 13, Node: 0, Pkt: 1},
		Event{Kind: KindEject, Cycle: 14, Node: 3, Pkt: 2}, // truncated tail
	)

	ring := NewRing(8) // undersized on purpose: 13 pushes, 5 drops
	for _, e := range events {
		ring.Push(e)
	}
	if ring.Dropped() == 0 {
		t.Fatal("test setup broken: ring did not drop")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Ring{ring}, TraceMeta{Width: 2, Height: 2}); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	flows := map[string][]string{}
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "s", "t", "f":
			flows[e.ID] = append(flows[e.ID], e.Ph)
		}
	}
	if _, ok := flows["0x2"]; ok {
		t.Errorf("truncated packet 0x2 got flow events %v, want none", flows["0x2"])
	}
	got := flows["0x1"]
	if len(got) == 0 || got[0] != "s" || got[len(got)-1] != "f" {
		t.Errorf("intact packet 0x1 flow chain = %v, want s...f", got)
	}
}

// TestWriteTraceDeterministic: identical rings encode to identical bytes.
func TestWriteTraceDeterministic(t *testing.T) {
	events := []Event{
		{Kind: KindInject, Cycle: 1, Pkt: 3},
		{Kind: KindLinkTraverse, Cycle: 2, Node: 1, Pkt: 3, B: 1},
		{Kind: KindEject, Cycle: 3, Node: 1, Pkt: 3},
	}
	_, a := writeTestTrace(t, events)
	_, b := writeTestTrace(t, events)
	if !bytes.Equal(a, b) {
		t.Error("trace bytes differ between identical runs")
	}
}

// TestWriteTraceMergesShards: a timeline split across two shard rings
// the way the executor splits it — each event in its emitting tile's
// shard, control gauges in shard 0 — exports the same bytes as the one
// ring that holds it in order.
func TestWriteTraceMergesShards(t *testing.T) {
	north, east, local := uint8(topology.North), uint8(topology.East), uint8(topology.Local)
	timeline := []struct {
		shard int
		e     Event
	}{
		{0, Event{Kind: KindVCOccupancy, Cycle: 1, Node: 0, Val: 3}},
		{0, Event{Kind: KindEnergySample, Cycle: 1, Node: -1, Val: 10}},
		{0, Event{Kind: KindInject, Cycle: 1, Node: 0, Pkt: 7}},
		{1, Event{Kind: KindInject, Cycle: 1, Node: 2, Pkt: 9}},
		{1, Event{Kind: KindSwitchTraverse, Cycle: 1, Node: 3}},
		{0, Event{Kind: KindLinkTraverse, Cycle: 1, Node: 2, A: north, Pkt: 9}}, // emitted by node 0
		{0, Event{Kind: KindLinkTraverse, Cycle: 1, Node: 0, A: east, Pkt: 7}},  // emitted by node 1
		{0, Event{Kind: KindVCOccupancy, Cycle: 2, Node: 3, Val: 1}},
		{0, Event{Kind: KindEject, Cycle: 2, Node: 0, Pkt: 9}},
		{0, Event{Kind: KindSwitchTraverse, Cycle: 2, Node: 1, Pkt: 7}},
		{0, Event{Kind: KindEject, Cycle: 2, Node: 1, Pkt: 7}},
		{1, Event{Kind: KindLinkTraverse, Cycle: 2, Node: 3, A: local}},
	}
	serial := NewRing(len(timeline))
	shards := []*Ring{NewRing(len(timeline)), NewRing(len(timeline))}
	for _, te := range timeline {
		serial.Push(te.e)
		shards[te.shard].Push(te.e)
	}
	meta := TraceMeta{Width: 2, Height: 2}
	var want, got bytes.Buffer
	if err := WriteTrace(&want, []*Ring{serial}, meta); err != nil {
		t.Fatalf("serial WriteTrace: %v", err)
	}
	if err := WriteTrace(&got, shards, meta); err != nil {
		t.Fatalf("sharded WriteTrace: %v", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("sharded export differs from the serial one:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// TestWriteTraceRejectsUnorderedShard: a shard whose merge key goes
// backwards cannot be merged into the serial order, and WriteTrace says
// which shard and cycle instead of writing a different timeline.
func TestWriteTraceRejectsUnorderedShard(t *testing.T) {
	ordered, unordered := NewRing(4), NewRing(4)
	ordered.Push(Event{Kind: KindInject, Cycle: 1, Node: 0, Pkt: 1})
	ordered.Push(Event{Kind: KindSwitchTraverse, Cycle: 6, Node: 0})
	unordered.Push(Event{Kind: KindSwitchTraverse, Cycle: 5, Node: 1})
	unordered.Push(Event{Kind: KindSwitchTraverse, Cycle: 3, Node: 1})
	err := WriteTrace(io.Discard, []*Ring{ordered, unordered}, TraceMeta{Width: 2, Height: 2})
	if err == nil {
		t.Fatal("WriteTrace merged an out-of-order shard without an error")
	}
	if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "cycle 3") {
		t.Errorf("error %q does not name shard 1 and cycle 3", msg)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	k := f.n
	f.n = 0
	return k, errWriterFull
}

// TestWriteTraceReportsWriterError: a writer that fails inside the
// metadata block, the event stream or otherData has its error returned.
// Each region is several times the export's write buffer, so the
// failure surfaces while that region is being written.
func TestWriteTraceReportsWriterError(t *testing.T) {
	ring := NewRing(1 << 12)
	for i := 0; i < ring.Cap(); i++ {
		ring.Push(Event{Kind: KindSwitchTraverse, Cycle: int64(i), Node: int32(i % 1600), Pkt: uint64(i)})
	}
	meta := TraceMeta{Width: 40, Height: 40, OtherData: map[string]string{"pad": strings.Repeat("x", 1<<18)}}
	var full bytes.Buffer
	if err := WriteTrace(&full, []*Ring{ring}, meta); err != nil {
		t.Fatal(err)
	}
	out := full.Bytes()
	events := bytes.Index(out, []byte(`{"ph":"X"`))
	other := bytes.Index(out, []byte(`"otherData"`))
	if events < 3<<16 || other-events < 3<<16 || len(out)-other < 3<<16 {
		t.Fatalf("regions too small to fail inside: metadata %d, events %d, otherData %d bytes",
			events, other-events, len(out)-other)
	}
	for _, c := range []struct {
		region string
		n      int
	}{
		{"metadata", events / 2},
		{"event stream", (events + other) / 2},
		{"otherData", (other + len(out)) / 2},
	} {
		if err := WriteTrace(&failAfter{n: c.n}, []*Ring{ring}, meta); !errors.Is(err, errWriterFull) {
			t.Errorf("writer failing in the %s (byte %d): WriteTrace returned %v", c.region, c.n, err)
		}
	}
}
