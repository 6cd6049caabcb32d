// Package trace provides trace-driven simulation: traffic traces can be
// synthesized from the canonical patterns, saved to a portable text
// format, loaded back, and replayed into a network. NoC studies — the
// paper's included — routinely drive simulators from traces captured
// elsewhere; this package is the reproduction's equivalent of that
// workflow, and it also pins down workloads exactly for regression
// comparisons across configurations.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// Event is one injection: at Cycle, Src sends a SizeFlits-flit message to
// Dst with the given switching eligibility and slack.
type Event struct {
	Cycle     int64
	Src       topology.NodeID
	Dst       topology.NodeID
	Class     flit.TrafficClass
	SizeFlits int
	AllowCS   bool
	Slack     int
}

// Trace is an ordered traffic trace for a Width x Height mesh.
type Trace struct {
	Width, Height int
	Events        []Event
}

// Sort orders events by cycle, then source (replay requires this order).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Cycle != t.Events[j].Cycle {
			return t.Events[i].Cycle < t.Events[j].Cycle
		}
		return t.Events[i].Src < t.Events[j].Src
	})
}

// Validate checks every event fits the mesh and has a sane size.
func (t *Trace) Validate() error {
	m := topology.NewMesh(t.Width, t.Height)
	last := int64(-1)
	for i, e := range t.Events {
		if int(e.Src) < 0 || int(e.Src) >= m.Nodes() || int(e.Dst) < 0 || int(e.Dst) >= m.Nodes() {
			return fmt.Errorf("trace: event %d references node outside %dx%d mesh", i, t.Width, t.Height)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("trace: event %d is a self-send", i)
		}
		if e.SizeFlits < 0 || e.SizeFlits > 64 {
			return fmt.Errorf("trace: event %d has size %d flits", i, e.SizeFlits)
		}
		if e.Cycle < last {
			return fmt.Errorf("trace: event %d out of order (call Sort first)", i)
		}
		last = e.Cycle
	}
	return nil
}

// Duration returns the cycle of the last event (0 for an empty trace).
func (t *Trace) Duration() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Cycle
}

// Synthesize builds a trace by running a synthetic pattern's injection
// process for the given number of cycles — the same Bernoulli process the
// live generators use, so a replayed trace matches a live run's offered
// load.
func Synthesize(p traffic.Pattern, m topology.Mesh, rate float64, flitsPerPacket int, cycles int64, seed uint64) *Trace {
	t := &Trace{Width: m.Width, Height: m.Height}
	master := sim.NewRNG(seed)
	rngs := make([]*sim.RNG, m.Nodes())
	for i := range rngs {
		rngs[i] = master.Fork()
	}
	for c := int64(0); c < cycles; c++ {
		for n := 0; n < m.Nodes(); n++ {
			rng := rngs[n]
			if !rng.Bernoulli(rate / float64(flitsPerPacket)) {
				continue
			}
			dst, ok := traffic.Destination(p, m, topology.NodeID(n), rng)
			if !ok {
				continue
			}
			t.Events = append(t.Events, Event{
				Cycle: c, Src: topology.NodeID(n), Dst: dst,
				Class: flit.ClassOther, SizeFlits: flitsPerPacket, AllowCS: true, Slack: -1,
			})
		}
	}
	return t
}

// Save writes the trace in a line-oriented text format:
//
//	tdmnoc-trace v1 <width> <height> <events>
//	<cycle> <src> <dst> <class> <flits> <allowCS 0|1> <slack>
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "tdmnoc-trace v1 %d %d %d\n", t.Width, t.Height, len(t.Events)); err != nil {
		return err
	}
	for _, e := range t.Events {
		cs := 0
		if e.AllowCS {
			cs = 1
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d %d\n",
			e.Cycle, e.Src, e.Dst, e.Class, e.SizeFlits, cs, e.Slack); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic, version string
	var w, h, n int
	if _, err := fmt.Fscan(br, &magic, &version, &w, &h, &n); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if magic != "tdmnoc-trace" || version != "v1" {
		return nil, fmt.Errorf("trace: unsupported format %s %s", magic, version)
	}
	if w <= 0 || h <= 0 || n < 0 {
		return nil, fmt.Errorf("trace: invalid header values %d %d %d", w, h, n)
	}
	// Pre-allocate conservatively: a hostile header must not be able to
	// demand arbitrary memory before any event has parsed.
	t := &Trace{Width: w, Height: h, Events: make([]Event, 0, min(n, 1<<16))}
	for i := 0; i < n; i++ {
		var e Event
		var class, cs int
		if _, err := fmt.Fscan(br, &e.Cycle, &e.Src, &e.Dst, &class, &e.SizeFlits, &cs, &e.Slack); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		e.Class = flit.TrafficClass(class)
		e.AllowCS = cs != 0
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Replayer is a network.Endpoint that injects one node's slice of a trace
// at the recorded cycles. Create one per node with NewReplayers.
type Replayer struct {
	events []Event // this node's events, cycle-sorted
	next   int
	offset int64
	// Sent counts injected packets.
	Sent int64
}

// NewReplayers splits a trace into per-node replayers. offset shifts
// every event into the future (e.g. past a warm-up period).
func NewReplayers(t *Trace, offset int64) map[topology.NodeID]*Replayer {
	out := map[topology.NodeID]*Replayer{}
	for _, e := range t.Events {
		r := out[e.Src]
		if r == nil {
			r = &Replayer{offset: offset}
			out[e.Src] = r
		}
		r.events = append(r.events, e)
	}
	return out
}

// Done reports whether every event has been injected.
func (r *Replayer) Done() bool { return r == nil || r.next >= len(r.events) }

// Stop discards the events not yet injected, so the network can drain.
func (r *Replayer) Stop() { r.next = len(r.events) }

// Tick implements network.Endpoint.
func (r *Replayer) Tick(now sim.Cycle, ni *network.NI) {
	for r.next < len(r.events) && r.events[r.next].Cycle+r.offset <= int64(now) {
		e := r.events[r.next]
		r.next++
		ni.Send(now, e.Dst, network.SendOptions{
			Class:     e.Class,
			AllowCS:   e.AllowCS,
			Slack:     e.Slack,
			SizeFlits: e.SizeFlits,
		})
		r.Sent++
	}
}

// OnDeliver implements network.Endpoint (replay sinks silently).
func (r *Replayer) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {}
