// Package difftest is the differential harness behind the simulator's
// "≡" claims: serial ≡ parallel, traced ≡ untraced, checked ≡ unchecked
// and scheduled ≡ always-tick. A Case is one scenario and its Points the
// configurations that must agree with the first one. The harness runs
// the reference once, then every other point, and compares the state
// digest at evenly spaced checkpoints, the rolling digest and each named
// output byte for byte. A digest mismatch is re-run in lockstep to the
// first diverging cycle and component. Only tests import it.
package difftest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// Point is one configuration of a Case: zero values are the plain run.
// There is no layout axis: the slab layout is a function of the worker
// count and the mesh shape, so a ragged mesh is a Case of its own.
type Point struct {
	Workers    int
	Traced     bool
	Checked    bool
	AlwaysTick bool
}

// Matrix returns base at each of the worker counts.
func Matrix(base Point, workers ...int) []Point {
	out := make([]Point, len(workers))
	for i, w := range workers {
		out[i] = base
		out[i].Workers = w
	}
	return out
}

// Subject is one built simulation.
type Subject interface {
	// Advance simulates the next cycles cycles.
	Advance(cycles int)
	StateDigest() uint64
	// RollingDigest is folded over every checked cycle (0 unchecked).
	RollingDigest() uint64
	// ComponentDigests yields StateDigest's parts, in a fixed order.
	ComponentDigests(yield func(name string, digest uint64))
	InvariantError() error
	Close()
}

// Case is one row of the harness.
type Case[S Subject] struct {
	Name   string
	Build  func(Point) S
	Cycles int
	// Checkpoints is how many evenly spaced cycles compare state
	// digests (default 8; the last is Cycles).
	Checkpoints int
	// Points[0] is the reference every other point is compared with.
	Points []Point
	// Outputs are read after the run. A nil result means the point does
	// not produce that output (an untraced point's trace); each output
	// is compared with the first point that produced it.
	Outputs map[string]func(S) ([]byte, error)
	// Proof must hold at every point: it fails when the scenario stops
	// exercising what the row is named for.
	Proof func(S) error
}

// Mismatch is the first way a point disagrees with its reference.
type Mismatch struct {
	Case       string
	Ref, Point Point
	What       string // "state digest", "rolling digest" or an output's name
	Checkpoint int    // the first checkpoint whose state digests differ
	Cycle      int    // the first cycle whose state digests differ
	Component  string // the first component whose digest differs then
	Detail     string
}

func (m *Mismatch) Error() string {
	s := fmt.Sprintf("%s: %s differs between %+v and %+v", m.Case, m.What, m.Ref, m.Point)
	if m.Checkpoint > 0 {
		s += fmt.Sprintf(" at checkpoint %d", m.Checkpoint)
	}
	if m.Cycle > 0 {
		s += fmt.Sprintf(": first diverging cycle %d, component %q", m.Cycle, m.Component)
	}
	if m.Detail != "" {
		s += ": " + m.Detail
	}
	return s
}

// Run checks c as the parallel subtest c.Name. Under -short and -race
// it runs the reference and one other point, chosen by a hash of the
// name.
func Run[S Subject](t *testing.T, c Case[S]) {
	t.Helper()
	t.Run(c.Name, func(t *testing.T) {
		t.Parallel()
		if err := Check(c, testing.Short() || raceEnabled); err != nil {
			t.Fatal(err)
		}
	})
}

// run is what one point produced.
type run struct {
	digests []uint64 // at each checkpoint
	rolling uint64
	outputs map[string][]byte
	err     error // an invariant violation or failed proof
}

// Check runs c and returns the first mismatch (a *Mismatch), invariant
// violation or failed proof. With sample set it runs only the reference
// and one other point.
func Check[S Subject](c Case[S], sample bool) error {
	points := c.Points
	if sample && len(points) > 2 {
		h := fnv.New32a()
		h.Write([]byte(c.Name))
		points = []Point{points[0], points[1+int(h.Sum32()%uint32(len(points)-1))]}
	}
	cps := c.checkpoints()
	ref := c.run(points[0], cps)
	if ref.err != nil {
		return ref.err
	}
	producer := map[string]Point{}
	for name := range ref.outputs {
		producer[name] = points[0]
	}
	for _, p := range points[1:] {
		got := c.run(p, cps)
		m := &Mismatch{Case: c.Name, Ref: points[0], Point: p, What: "state digest"}
		for i, d := range got.digests {
			if d != ref.digests[i] {
				m.Checkpoint = cps[i]
				lo := 0
				if i > 0 {
					lo = cps[i-1]
				}
				return c.locate(m, lo, cps[i])
			}
		}
		if points[0].Checked && p.Checked && got.rolling != ref.rolling {
			m.What = "rolling digest"
			return c.locate(m, 0, c.Cycles)
		}
		for _, name := range sortedKeys(got.outputs) {
			b := got.outputs[name]
			want, ok := ref.outputs[name]
			if !ok {
				ref.outputs[name], producer[name] = b, p
				continue
			}
			if !bytes.Equal(want, b) {
				return &Mismatch{Case: c.Name, Ref: producer[name], Point: p, What: name, Detail: firstDiff(want, b)}
			}
		}
		if got.err != nil {
			return got.err
		}
	}
	return nil
}

func (c *Case[S]) checkpoints() []int {
	k := c.Checkpoints
	if k <= 0 {
		k = 8
	}
	k = min(k, c.Cycles)
	cps := make([]int, k)
	for i := range cps {
		cps[i] = c.Cycles * (i + 1) / k
	}
	return cps
}

func (c *Case[S]) run(p Point, cps []int) (r run) {
	s := c.Build(p)
	defer s.Close()
	at := 0
	for _, cp := range cps {
		s.Advance(cp - at)
		at = cp
		r.digests = append(r.digests, s.StateDigest())
	}
	r.rolling = s.RollingDigest()
	r.outputs = map[string][]byte{}
	for _, name := range sortedKeys(c.Outputs) {
		b, err := c.Outputs[name](s)
		if err != nil {
			r.err = fmt.Errorf("%s %+v: output %s: %w", c.Name, p, name, err)
			return r
		}
		if b != nil {
			r.outputs[name] = b
		}
	}
	if err := s.InvariantError(); err != nil {
		r.err = fmt.Errorf("%s %+v: %w", c.Name, p, err)
	} else if c.Proof != nil {
		if err := c.Proof(s); err != nil {
			r.err = fmt.Errorf("%s %+v: %w", c.Name, p, err)
		}
	}
	return r
}

// locate re-runs m's two points in lockstep from cycle lo and fills in
// the first cycle in (lo, hi] whose state digests differ and the first
// component that differs there.
func (c *Case[S]) locate(m *Mismatch, lo, hi int) *Mismatch {
	a, b := c.Build(m.Ref), c.Build(m.Point)
	defer a.Close()
	defer b.Close()
	a.Advance(lo)
	b.Advance(lo)
	for cyc := lo + 1; cyc <= hi; cyc++ {
		a.Advance(1)
		b.Advance(1)
		if a.StateDigest() == b.StateDigest() {
			continue
		}
		m.Cycle = cyc
		var want []uint64
		a.ComponentDigests(func(_ string, d uint64) { want = append(want, d) })
		i := 0
		b.ComponentDigests(func(name string, d uint64) {
			if m.Component == "" && i < len(want) && want[i] != d {
				m.Component = name
			}
			i++
		})
		return m
	}
	m.Detail = "the lockstep re-run did not reproduce the divergence"
	return m
}

func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("%d vs %d bytes, first difference at byte %d", len(a), len(b), i)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
