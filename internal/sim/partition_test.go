package sim

import (
	"reflect"
	"testing"
)

var partitionCases = []struct{ w, h, workers int }{
	{1, 1, 1}, {2, 2, 1}, {2, 2, 3}, {2, 2, 8},
	{6, 6, 1}, {6, 6, 2}, {6, 6, 4}, {6, 6, 5},
	{10, 6, 1}, {10, 6, 2}, {10, 6, 3}, {10, 6, 7}, {10, 6, 8}, {10, 6, 16},
	{32, 32, 1}, {32, 32, 2}, {32, 32, 4}, {32, 32, 8}, {32, 32, 16},
	{2, 4, 7}, {3, 1, 2}, {1, 9, 4},
}

// The partition must cover each tile exactly once, with deterministic
// output.
func TestPartitionCoversEveryTileOnce(t *testing.T) {
	for _, c := range partitionCases {
		parts := BlockPartition(c.w, c.h, c.workers)
		seen := make([]int, c.w*c.h)
		for _, ids := range parts {
			for _, id := range ids {
				if id < 0 || id >= len(seen) {
					t.Fatalf("%dx%d w=%d: tile id %d out of range", c.w, c.h, c.workers, id)
				}
				seen[id]++
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("%dx%d w=%d: tile %d assigned %d times", c.w, c.h, c.workers, id, n)
			}
		}
		if again := BlockPartition(c.w, c.h, c.workers); !reflect.DeepEqual(parts, again) {
			t.Fatalf("%dx%d w=%d: BlockPartition is not deterministic", c.w, c.h, c.workers)
		}
	}
}

// Each block partition must be an exact rectangle, listed row-major.
func TestBlockPartitionsAreRectangles(t *testing.T) {
	for _, c := range partitionCases {
		parts := BlockPartition(c.w, c.h, c.workers)
		for wi, ids := range parts {
			if len(ids) == 0 {
				continue
			}
			minX, minY := c.w, c.h
			maxX, maxY := -1, -1
			for _, id := range ids {
				x, y := id%c.w, id/c.w
				minX, minY = min(minX, x), min(minY, y)
				maxX, maxY = max(maxX, x), max(maxY, y)
			}
			bw, bh := maxX-minX+1, maxY-minY+1
			if len(ids) != bw*bh {
				t.Fatalf("%dx%d w=%d: worker %d has %d tiles in a %dx%d bounding box", c.w, c.h, c.workers, wi, len(ids), bw, bh)
			}
			for i, id := range ids {
				wantX, wantY := minX+i%bw, minY+i/bw
				if id != wantY*c.w+wantX {
					t.Fatalf("%dx%d w=%d: worker %d tile %d is id %d, want row-major %d", c.w, c.h, c.workers, wi, i, id, wantY*c.w+wantX)
				}
			}
		}
	}
}

// PartitionSpans must produce contiguous ascending spans that line up
// with the flattened order, and NewExecutorSpans must accept them and
// give each worker its span.
func TestPartitionSpansAndExecutorOwners(t *testing.T) {
	parts := BlockPartition(10, 6, 4)
	order, spans := PartitionSpans(parts, 2)
	if len(order) != 60 {
		t.Fatalf("order has %d tiles, want 60", len(order))
	}

	tickers := make([]Ticker, 2*len(order))
	for i := range tickers {
		tickers[i] = tickFn(func(Cycle, Phase) {})
	}
	var clock Clock
	e := NewExecutorSpans(&clock, tickers, spans)
	defer e.Close()
	if e.Workers() != len(spans) {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), len(spans))
	}
	for wi, s := range spans {
		if pt := &e.parts[wi]; pt.lo != s.Lo || pt.hi != s.Hi {
			t.Fatalf("worker %d runs tickers [%d, %d), want [%d, %d)", wi, pt.lo, pt.hi, s.Lo, s.Hi)
		}
	}
	e.Run(3)
	if clock.Now() != 3 {
		t.Fatalf("clock at %d after Run(3)", clock.Now())
	}
}

// Malformed spans are construction-time bugs and must panic.
func TestNewExecutorSpansRejectsBadSpans(t *testing.T) {
	tickers := []Ticker{tickFn(func(Cycle, Phase) {}), tickFn(func(Cycle, Phase) {})}
	var clock Clock
	for _, bad := range [][]Span{
		{{0, 1}},         // does not cover the slice
		{{0, 1}, {0, 2}}, // overlapping
		{{1, 2}},         // does not start at 0
		{{0, 3}},         // past the end
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("spans %+v did not panic", bad)
				}
			}()
			NewExecutorSpans(&clock, tickers, bad)
		}()
	}
}

type tickFn func(Cycle, Phase)

func (f tickFn) Tick(now Cycle, p Phase) { f(now, p) }
