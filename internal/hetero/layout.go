// Package hetero models the heterogeneous multicore system of Section V:
// a 36-tile chip (Fig. 7) with superscalar CPU cores, data-parallel
// accelerators, shared L2 banks and memory controllers, connected by the
// simulated NoC. It substitutes for the paper's Simics/GEMS + GPGPU-Sim
// stack with latency-coupled abstract core models: CPUs retire
// instructions until their memory-level parallelism is exhausted, GPU warp
// pools hide memory latency until they run out of ready warps, and both
// therefore convert network latency into end performance the way the
// originals do.
package hetero

import (
	"fmt"

	"tdmnoc/internal/topology"
)

// TileKind labels what occupies a tile (Fig. 7's C / A / L2 / M).
type TileKind uint8

const (
	// TileCPU holds a four-way out-of-order core and its L1 caches.
	TileCPU TileKind = iota
	// TileGPU holds a 32-wide SIMD accelerator.
	TileGPU
	// TileL2 holds one bank of the shared, distributed L2.
	TileL2
	// TileMC holds a memory controller to off-chip DRAM.
	TileMC
)

// String returns the Fig. 7 tile label.
func (k TileKind) String() string {
	switch k {
	case TileCPU:
		return "C"
	case TileGPU:
		return "A"
	case TileL2:
		return "L2"
	case TileMC:
		return "M"
	}
	return fmt.Sprintf("TileKind(%d)", uint8(k))
}

// Layout assigns a kind to every tile.
type Layout struct {
	Mesh  topology.Mesh
	Kinds []TileKind
	CPUs  []topology.NodeID
	GPUs  []topology.NodeID
	L2s   []topology.NodeID
	MCs   []topology.NodeID
}

// Layout36 is the evaluated 6x6 system of Fig. 7: 8 CPU tiles across the
// top, 12 accelerators across the bottom, 12 L2 banks in the middle and 4
// memory controllers on the middle rows' edges — preserving the
// many-to-few accelerator-to-cache/memory pattern the paper relies on.
//
//	C  C  C  C  C  C
//	C  L2 L2 L2 L2 C
//	M  L2 L2 L2 L2 M
//	M  L2 L2 L2 L2 M
//	A  A  A  A  A  A
//	A  A  A  A  A  A
func Layout36() Layout {
	rows := [][]TileKind{
		{TileCPU, TileCPU, TileCPU, TileCPU, TileCPU, TileCPU},
		{TileCPU, TileL2, TileL2, TileL2, TileL2, TileCPU},
		{TileMC, TileL2, TileL2, TileL2, TileL2, TileMC},
		{TileMC, TileL2, TileL2, TileL2, TileL2, TileMC},
		{TileGPU, TileGPU, TileGPU, TileGPU, TileGPU, TileGPU},
		{TileGPU, TileGPU, TileGPU, TileGPU, TileGPU, TileGPU},
	}
	return fromRows(rows)
}

// LayoutScaled builds a proportionally similar layout for an arbitrary
// mesh (used by the scalability study): the top quarter of rows are CPU
// tiles, the bottom third accelerators, the middle L2 banks, with four MC
// tiles pinned to the middle rows' edges.
func LayoutScaled(width, height int) Layout {
	rows := make([][]TileKind, height)
	cpuRows := max(1, height/4)
	gpuRows := max(1, height/3)
	for y := 0; y < height; y++ {
		row := make([]TileKind, width)
		for x := 0; x < width; x++ {
			switch {
			case y < cpuRows:
				row[x] = TileCPU
			case y >= height-gpuRows:
				row[x] = TileGPU
			default:
				row[x] = TileL2
			}
		}
		rows[y] = row
	}
	// Four memory controllers on the middle rows' edges.
	midLo := min(cpuRows+(height-cpuRows-gpuRows)/3, height-1)
	midHi := height - gpuRows - 1 - (height-cpuRows-gpuRows)/3
	if midHi <= midLo {
		midHi = midLo + 1
	}
	if midHi >= height {
		midHi = height - 1
	}
	rows[midLo][0] = TileMC
	rows[midLo][width-1] = TileMC
	rows[midHi][0] = TileMC
	rows[midHi][width-1] = TileMC
	return fromRows(rows)
}

// LayoutFor picks the layout NewSystem populates for a width x height
// mesh (both positive): Fig. 7 for the evaluated 6x6 system, the scaled layout otherwise.
// On a small mesh the four memory controllers overwrite the only tiles
// of some other kind; such a system cannot run (cores would have no L2
// bank or MC to address), so it is refused here, before any network is
// built.
func LayoutFor(width, height int) (Layout, error) {
	if width == 6 && height == 6 {
		return Layout36(), nil
	}
	l := LayoutScaled(width, height)
	if len(l.CPUs) == 0 || len(l.GPUs) == 0 || len(l.L2s) == 0 || len(l.MCs) == 0 {
		return Layout{}, fmt.Errorf("hetero: a %dx%d mesh is too small for the heterogeneous layout (%d CPU, %d GPU, %d L2, %d MC tiles; every kind needs at least one)",
			width, height, len(l.CPUs), len(l.GPUs), len(l.L2s), len(l.MCs))
	}
	return l, nil
}

func fromRows(rows [][]TileKind) Layout {
	h := len(rows)
	w := len(rows[0])
	l := Layout{Mesh: topology.NewMesh(w, h), Kinds: make([]TileKind, w*h)}
	for y, row := range rows {
		if len(row) != w {
			panic("hetero: ragged layout")
		}
		for x, k := range row {
			id := l.Mesh.ID(topology.Coord{X: x, Y: y})
			l.Kinds[id] = k
			switch k {
			case TileCPU:
				l.CPUs = append(l.CPUs, id)
			case TileGPU:
				l.GPUs = append(l.GPUs, id)
			case TileL2:
				l.L2s = append(l.L2s, id)
			case TileMC:
				l.MCs = append(l.MCs, id)
			}
		}
	}
	return l
}

// String renders the layout as the Fig. 7 tile grid.
func (l Layout) String() string {
	out := ""
	for y := 0; y < l.Mesh.Height; y++ {
		for x := 0; x < l.Mesh.Width; x++ {
			out += fmt.Sprintf("%-3s", l.Kinds[l.Mesh.ID(topology.Coord{X: x, Y: y})])
		}
		out += "\n"
	}
	return out
}

// Kind returns the tile kind at id.
func (l Layout) Kind(id topology.NodeID) TileKind { return l.Kinds[id] }

// NearestMC returns the memory controller closest to id (ties broken by
// lowest node id, deterministically).
func (l Layout) NearestMC(id topology.NodeID) topology.NodeID {
	best := l.MCs[0]
	bd := l.Mesh.HopDistance(id, best)
	for _, mc := range l.MCs[1:] {
		if d := l.Mesh.HopDistance(id, mc); d < bd {
			best, bd = mc, d
		}
	}
	return best
}

// BankFor maps an address-interleave index to an L2 bank.
func (l Layout) BankFor(idx int) topology.NodeID {
	return l.L2s[idx%len(l.L2s)]
}
