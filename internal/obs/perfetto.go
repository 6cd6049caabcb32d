package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"tdmnoc/internal/topology"
)

// TraceMeta labels the exported trace. Width/Height give the mesh shape
// so router threads get human-readable "(x,y)" names; OtherData lands in
// the trace's otherData section (written in sorted key order so the
// output is deterministic).
type TraceMeta struct {
	Width, Height int
	OtherData     map[string]string
}

// globalTID is the thread id used for network-wide events (Node == -1),
// e.g. slot-table resizes decided by the central policy.
const globalTID = 1 << 20

// pid assignment: routers and NIs get separate Perfetto processes so
// their tracks group cleanly.
const (
	pidRouters = 1
	pidNIs     = 2
)

func eventPID(k Kind) int {
	switch k {
	case KindInject, KindEject, KindSetupLatency, KindDLTAdd, KindDLTRemove, KindQueueDepth:
		return pidNIs
	}
	return pidRouters
}

func eventCat(k Kind) string {
	switch k {
	case KindCSBypass, KindSetupReserve, KindSetupFail, KindSetupAck,
		KindTeardownRelease, KindSlotSteal, KindSlotResize:
		return "cs"
	case KindInject, KindEject, KindSetupLatency, KindDLTAdd, KindDLTRemove:
		return "ni"
	case KindQueueDepth, KindVCOccupancy, KindSlotOccupancy, KindEnergySample:
		return "gauge"
	}
	return "pipe"
}

func isCounter(k Kind) bool {
	switch k {
	case KindQueueDepth, KindVCOccupancy, KindSlotOccupancy, KindEnergySample:
		return true
	}
	return false
}

// mergeClass orders event kinds within one cycle the way the serial
// simulator emits them: window-boundary gauges and manager decisions
// (stamped with the post-step cycle, emitted before that cycle's ticks)
// sort first, compute-phase pipeline/protocol events second, and
// transfer-phase link traversals last.
func mergeClass(k Kind) int {
	switch k {
	case KindQueueDepth, KindVCOccupancy, KindSlotOccupancy, KindEnergySample, KindSlotResize:
		return 0
	case KindLinkTraverse:
		return 2
	}
	return 1
}

// mergeEmitter resolves the tile whose tick emitted e — the tiebreak
// within a (cycle, class) group. Compute-phase events carry the emitting
// tile in Node. A transfer-phase link traversal is emitted by the
// DOWNSTREAM router's tick but describes the upstream sender (Node = the
// sender, A = its output port), so the emitter is the neighbor across
// that port; a Local-port traversal is the NI ejecting to itself.
func mergeEmitter(e Event, mesh topology.Mesh) int32 {
	switch mergeClass(e.Kind) {
	case 0:
		return -1 // control shard only; the merge keeps emission order
	case 2:
		p := topology.Port(e.A)
		if p == topology.Local {
			return e.Node
		}
		if nb, ok := mesh.Neighbor(topology.NodeID(e.Node), p); ok {
			return int32(nb)
		}
		return e.Node
	}
	return e.Node
}

// mergeKey orders events across shards: (cycle, mergeClass, emitter).
type mergeKey struct {
	cycle          int64
	class, emitter int32
}

func keyOf(e *Event, mesh topology.Mesh) mergeKey {
	return mergeKey{e.Cycle, int32(mergeClass(e.Kind)), mergeEmitter(*e, mesh)}
}

func (a mergeKey) less(b mergeKey) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.emitter < b.emitter
}

// cursor walks one shard ring's live events in place, oldest first.
type cursor struct {
	ring     *Ring
	shard    int
	pos, end int // ring positions; the event at pos is buf[pos&mask]
	key      mergeKey
}

func (c *cursor) head() *Event { return &c.ring.buf[c.pos&c.ring.mask] }

// Flow-stitching states per packet id.
const (
	flowUnseen uint8 = iota
	flowStarted
	flowSkipped
	flowFinished
)

// WriteTrace streams the merged timeline of the shard rings as Chrome
// trace-event JSON (loadable by Perfetto and chrome://tracing). One
// thread per router and per NI, timestamps in microseconds with 1 cycle
// = 1 us, pipeline and protocol events as 1-cycle "X" slices, sampled
// gauges as "C" counters, and a packet's head flit linked across hops
// with "s"/"t"/"f" flow events keyed by packet id.
//
// The timeline is a k-way merge over the rings where they lie: each step
// writes the head event with the smallest (cycle, mergeClass, emitter)
// key, ties going to the lower shard index. A worker ticks its tiles in
// ascending node order and the control events land only in shard 0,
// between cycles, so every shard is already in key order and the merge
// is exactly the stable sort of the shards' concatenation — the bytes
// a single-shard serial run writes, at any worker count. A shard whose
// key decreases breaks that premise: WriteTrace then stops with an
// error naming the shard and cycle, and what it wrote is incomplete.
// The export allocates only its write buffer and one flow state per
// packet it meets, never a copy of the events.
//
// Flow stitching is all-or-nothing per packet: a packet whose first
// recorded head-flit sighting is not its injection (the ring dropped the
// first hop) gets no flow events at all — a flow beginning mid-route
// with no begin anchor renders as a dangling arrow in Perfetto.
func WriteTrace(w io.Writer, rings []*Ring, meta TraceMeta) error {
	if meta.Width <= 0 || meta.Height <= 0 {
		return fmt.Errorf("obs: trace of a %dx%d mesh", meta.Width, meta.Height)
	}
	mesh := topology.NewMesh(meta.Width, meta.Height)
	bw := bufio.NewWriterSize(w, 1<<16)

	// Metadata: name the processes and one thread per node.
	if _, err := fmt.Fprintf(bw, `{"traceEvents":[{"ph":"M","pid":%d,"name":"process_name","args":{"name":"routers"}},{"ph":"M","pid":%d,"name":"process_name","args":{"name":"NIs"}}`,
		pidRouters, pidNIs); err != nil {
		return err
	}
	for n := 0; n < mesh.Nodes(); n++ {
		x, y := n%meta.Width, n/meta.Width
		if _, err := fmt.Fprintf(bw, `,{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"router (%d,%d)"}},{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"ni (%d,%d)"}}`,
			pidRouters, n, x, y, pidNIs, n, x, y); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, `,{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"global"}}`,
		pidRouters, globalTID); err != nil {
		return err
	}

	curs := make([]cursor, 0, len(rings))
	for s, r := range rings {
		if r.n > 0 {
			c := cursor{ring: r, shard: s, pos: r.head, end: r.head + r.n}
			c.key = keyOf(c.head(), mesh)
			curs = append(curs, c)
		}
	}
	flows := make(map[uint64]uint8)
	b := make([]byte, 0, 256)
	for len(curs) > 0 {
		best := 0
		for i := 1; i < len(curs); i++ {
			if curs[i].key.less(curs[best].key) {
				best = i
			}
		}
		c := &curs[best]
		b = appendEvent(append(b[:0], ','), c.head(), flows)
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if c.pos++; c.pos == c.end {
			curs = append(curs[:best], curs[best+1:]...)
			continue
		}
		next := keyOf(c.head(), mesh)
		if next.less(c.key) {
			return fmt.Errorf("obs: shard %d is out of merge order at cycle %d: key %+v follows %+v",
				c.shard, next.cycle, next, c.key)
		}
		c.key = next
	}

	if _, err := io.WriteString(bw, `],"displayTimeUnit":"ms","otherData":{`); err != nil {
		return err
	}
	keys := make([]string, 0, len(meta.OtherData))
	for k := range meta.OtherData {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		comma := ","
		if i == 0 {
			comma = ""
		}
		if _, err := fmt.Fprintf(bw, `%s%q:%q`, comma, k, meta.OtherData[k]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "}}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendEvent appends e's trace records — its slice or counter, then
// any flow record it carries — advancing its packet's flow state.
func appendEvent(b []byte, e *Event, flows map[uint64]uint8) []byte {
	pid, tid := int64(eventPID(e.Kind)), int64(e.Node)
	if e.Node < 0 {
		pid, tid = pidRouters, globalTID
	}
	if isCounter(e.Kind) {
		b = appendHead(b, "C", pid, tid, e.Cycle)
		b = append(b, `,"name":"`...)
		b = append(b, e.Kind.String()...)
		b = append(b, `","cat":"`...)
		b = append(b, eventCat(e.Kind)...)
		b = append(b, `","args":{"v":`...)
		b = strconv.AppendInt(b, e.Val, 10)
		return append(b, "}}"...)
	}
	b = appendHead(b, "X", pid, tid, e.Cycle)
	b = append(b, `,"dur":1,"name":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","cat":"`...)
	b = append(b, eventCat(e.Kind)...)
	b = append(b, `","args":{"pkt":`...)
	b = strconv.AppendUint(b, e.Pkt, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"slot":`...)
	b = strconv.AppendInt(b, int64(e.Slot), 10)
	b = append(b, `,"val":`...)
	b = strconv.AppendInt(b, e.Val, 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendUint(b, uint64(e.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendUint(b, uint64(e.B), 10)
	b = append(b, "}}"...)

	// Flow events tie a packet's head flit together across hops:
	// injection starts the flow, link traversals step it, ejection
	// finishes it; later sightings of a finished id are ignored. The
	// packet's first flow-relevant sighting decides: anything but its
	// injection means the ring dropped its first hop, and the whole
	// flow is skipped rather than started mid-route.
	if e.Pkt == 0 {
		return b
	}
	headHop := (e.Kind == KindLinkTraverse || e.Kind == KindInject) && e.Seq == 0
	eject := e.Kind == KindEject
	if !headHop && !eject {
		return b
	}
	var ph string
	switch flows[e.Pkt] {
	case flowUnseen:
		if e.Kind != KindInject {
			flows[e.Pkt] = flowSkipped
			return b
		}
		flows[e.Pkt] = flowStarted
		ph = "s"
	case flowStarted:
		ph = "t"
		if eject {
			ph = "f"
			flows[e.Pkt] = flowFinished
		}
	default:
		return b
	}
	b = append(b, ',')
	b = appendHead(b, ph, pid, tid, e.Cycle)
	b = append(b, `,"name":"pkt","cat":"flow","id":"0x`...)
	b = strconv.AppendUint(b, e.Pkt, 16)
	if ph == "f" {
		return append(b, `","bp":"e"}`...)
	}
	return append(b, `"}`...)
}

// appendHead appends the fields every record opens with.
func appendHead(b []byte, ph string, pid, tid, ts int64) []byte {
	b = append(b, `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, pid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"ts":`...)
	return strconv.AppendInt(b, ts, 10)
}
