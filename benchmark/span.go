package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.
type span struct {
	Name   string
	Lane   int // Chrome-trace thread: spans of one lane nest, never overlap
	Op     int // simulation or job index the call belongs to (-1 = none)
	Parent int // index of the span that caused this one (-1 = root)
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: begin returns -1 and end ignores it, so call sites need
// no branches and the untraced pass pays two nil checks per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, lane, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Lane: lane, Op: op, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans; ids stay valid as indices because
// unclosed spans keep their slot with End clamped to the snapshot time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = now
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children. Children are clipped to the
// parent and overlapping children (concurrent callees) are merged
// first, so covered time is never counted twice.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end time.Duration
		end = s.Start
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTable aggregates spans by name, largest self time first.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	byName := map[string]*selfRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[i]
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Self != rows[b].Self {
			return rows[a].Self > rows[b].Self
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

// writeSelfTable renders the table; share is self time over wall.
func writeSelfTable(w io.Writer, spans []span, wall time.Duration) error {
	if _, err := fmt.Fprintf(w, "%-28s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self/wall"); err != nil {
		return err
	}
	for _, r := range selfTable(spans) {
		share := 0.0
		if wall > 0 {
			share = float64(r.Self) / float64(wall)
		}
		if _, err := fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %7.1f%%\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, 100*share); err != nil {
			return err
		}
	}
	return nil
}

// writeChromeTrace emits the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span, one
// thread per lane, parent and op ids in args.
func writeChromeTrace(w io.Writer, spans []span, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents []event           `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData,omitempty"`
	}{TraceEvents: make([]event, 0, len(spans)), OtherData: meta}
	for i, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
