// Package routing implements the two routing functions of Table I:
// dimension-order X-Y routing for ordinary packets (deadlock-free on a
// mesh) and minimal adaptive routing for circuit-switching configuration
// packets, which lets path setup steer around congested regions
// (Section II-B "Path selection").
package routing

import "tdmnoc/internal/topology"

// XY returns the output port dimension-order routing takes from cur toward
// dst: first correct X, then Y; Local when cur == dst.
func XY(m topology.Mesh, cur, dst topology.NodeID) topology.Port {
	cc, dc := m.Coord(cur), m.Coord(dst)
	switch {
	case dc.X > cc.X:
		return topology.East
	case dc.X < cc.X:
		return topology.West
	case dc.Y > cc.Y:
		return topology.South
	case dc.Y < cc.Y:
		return topology.North
	default:
		return topology.Local
	}
}

// minimalInto writes the productive ports from cur toward dst into buf
// (at most two on a mesh: one per dimension still needing correction)
// and returns how many there are; none means cur == dst. It allocates
// nothing, so WestFirst can run on the per-cycle hot path.
func minimalInto(m topology.Mesh, cur, dst topology.NodeID, buf *[2]topology.Port) int {
	cc, dc := m.Coord(cur), m.Coord(dst)
	n := 0
	switch {
	case dc.X > cc.X:
		buf[n] = topology.East
		n++
	case dc.X < cc.X:
		buf[n] = topology.West
		n++
	}
	switch {
	case dc.Y > cc.Y:
		buf[n] = topology.South
		n++
	case dc.Y < cc.Y:
		buf[n] = topology.North
		n++
	}
	return n
}

// CongestionFunc scores an output port; lower is less congested. Routers
// supply a function backed by downstream credit counts.
type CongestionFunc func(p topology.Port) int

// WestFirst is the minimal adaptive routing function used for
// configuration messages. It follows the west-first turn model (Glass &
// Ni): a packet that must travel west does so first, with no adaptivity;
// otherwise it chooses the least congested productive port. Because the
// prohibited turns (into West) are never taken — and X-Y routing, used by
// data packets sharing the same VCs, takes no such turns either — the
// combined channel dependency graph is acyclic and the network is
// deadlock-free without dedicated escape VCs.
func WestFirst(m topology.Mesh, cur, dst topology.NodeID, congestion CongestionFunc) topology.Port {
	var buf [2]topology.Port
	n := minimalInto(m, cur, dst, &buf)
	for _, c := range buf[:n] {
		if c == topology.West {
			return topology.West
		}
	}
	switch n {
	case 0:
		return topology.Local
	case 1:
		return buf[0]
	}
	best := buf[0]
	bestScore := congestion(best)
	for _, c := range buf[1:n] {
		if s := congestion(c); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// PathXY returns the full X-Y path from src to dst as the sequence of nodes
// visited, including both endpoints. Setup messages follow adaptive routes
// hop by hop, but tests and the vicinity-sharing overlap check use the
// deterministic X-Y path.
func PathXY(m topology.Mesh, src, dst topology.NodeID) []topology.NodeID {
	path := []topology.NodeID{src}
	cur := src
	for cur != dst {
		p := XY(m, cur, dst)
		next, ok := m.Neighbor(cur, p)
		if !ok {
			// Unreachable on a well-formed mesh; guard against misuse.
			panic("routing: XY stepped off the mesh")
		}
		path = append(path, next)
		cur = next
	}
	return path
}
