package sim

import "unsafe"

// SlabBytes returns the bytes of an arena slab: its length times its
// element size. The per-partition arenas report their footprint with it.
func SlabBytes[T any](slab []T) int {
	var z T
	return len(slab) * int(unsafe.Sizeof(z))
}

// BlockPartition assigns the tiles of a width×height mesh to workers,
// one rectangular block each. Workers are arranged in a wx×wy grid
// chosen to minimize the block semi-perimeter (the cross-worker link
// surface); width and height are split into balanced contiguous bands.
// Blocks are numbered row-major over the grid, and each worker's tiles
// are listed row-major within its block, so a partition-contiguous
// memory layout keeps every worker's working set spatially compact and
// confines cross-worker traffic to block perimeters.
//
// The executor itself only sees flat ticker spans; this function decides
// which tiles land in which span and in what order, which in turn
// decides both worker ownership (which shard a tile's trace events land
// in) and the memory order of per-tile state when the network lays tickers
// out partition-contiguously.
//
// It returns one tile-id list per worker (some possibly empty); tile
// ids are row-major, id = y*width + x. The result is a pure function of
// the arguments and the concatenation of the lists is a permutation of
// 0..width*height-1. Simulation results never depend on the layout —
// the two-phase barrier contract makes tick order within a phase
// unobservable — but traces, profiles and memory layout do, so the
// function must not consult anything but its arguments.
func BlockPartition(width, height, workers int) [][]int {
	n := width * height
	workers = clampWorkers(workers, n)
	wx, wy := blockGrid(width, height, workers)
	parts := make([][]int, 0, workers)
	for by := 0; by < wy; by++ {
		y0, y1 := bandSplit(height, wy, by)
		for bx := 0; bx < wx; bx++ {
			x0, x1 := bandSplit(width, wx, bx)
			ids := make([]int, 0, (x1-x0)*(y1-y0))
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					ids = append(ids, y*width+x)
				}
			}
			parts = append(parts, ids)
		}
	}
	return parts
}

// blockGrid factorizes workers into a wx×wy grid. Among all divisor
// pairs it picks the one minimizing the block semi-perimeter
// ceil(width/wx)+ceil(height/wy); pairs whose grid physically fits
// (wx <= width, wy <= height) always beat pairs that would leave empty
// bands. Ties resolve to the smallest wx, so the choice is a pure
// function of the arguments.
func blockGrid(width, height, workers int) (wx, wy int) {
	wx, wy = 1, workers
	best := 1 << 60
	for cx := 1; cx <= workers; cx++ {
		if workers%cx != 0 {
			continue
		}
		cy := workers / cx
		cost := (width+cx-1)/cx + (height+cy-1)/cy
		if cx > width || cy > height {
			cost += 1 << 30
		}
		if cost < best {
			best = cost
			wx, wy = cx, cy
		}
	}
	return wx, wy
}

// bandSplit returns the half-open range [lo, hi) of band b when total is
// divided into bands balanced contiguous pieces (sizes differ by at most
// one, larger pieces last).
func bandSplit(total, bands, b int) (lo, hi int) {
	return b * total / bands, (b + 1) * total / bands
}

// clampWorkers caps workers at the tile count (beyond it some workers
// could never receive a tile) and floors it at 1.
func clampWorkers(workers, tiles int) int {
	if workers < 1 {
		return 1
	}
	if workers > tiles {
		return max(1, tiles)
	}
	return workers
}

// PartitionSpans flattens a BlockPartition result into the tile
// permutation (the order tiles should be laid out and ticked) and the
// per-worker ticker spans for a slice holding perTile tickers per tile
// in that order.
func PartitionSpans(parts [][]int, perTile int) (order []int, spans []Span) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	order = make([]int, 0, total)
	spans = make([]Span, len(parts))
	for i, p := range parts {
		lo := len(order) * perTile
		order = append(order, p...)
		spans[i] = Span{Lo: lo, Hi: len(order) * perTile}
	}
	return order, spans
}
