package routing

import (
	"testing"
	"testing/quick"

	"tdmnoc/internal/topology"
)

func TestXYBasicDirections(t *testing.T) {
	m := topology.NewMesh(6, 6)
	center := m.ID(topology.Coord{X: 3, Y: 3})
	cases := []struct {
		dst  topology.Coord
		want topology.Port
	}{
		{topology.Coord{X: 5, Y: 3}, topology.East},
		{topology.Coord{X: 0, Y: 3}, topology.West},
		{topology.Coord{X: 3, Y: 5}, topology.South},
		{topology.Coord{X: 3, Y: 0}, topology.North},
		{topology.Coord{X: 3, Y: 3}, topology.Local},
		// X corrected before Y.
		{topology.Coord{X: 5, Y: 5}, topology.East},
		{topology.Coord{X: 0, Y: 0}, topology.West},
	}
	for _, c := range cases {
		if got := XY(m, center, m.ID(c.dst)); got != c.want {
			t.Errorf("XY to %v = %v, want %v", c.dst, got, c.want)
		}
	}
}

func TestXYPathReachesAndIsMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	f := func(a8, b8 uint8) bool {
		src := topology.NodeID(int(a8) % m.Nodes())
		dst := topology.NodeID(int(b8) % m.Nodes())
		path := PathXY(m, src, dst)
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		// Minimal: path length equals hop distance + 1.
		if len(path) != m.HopDistance(src, dst)+1 {
			return false
		}
		// Every step is a mesh link.
		for i := 1; i < len(path); i++ {
			if m.HopDistance(path[i-1], path[i]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWestFirstStaysMinimal(t *testing.T) {
	// Property: whatever the congestion function, the chosen port is
	// productive (reduces hop distance).
	m := topology.NewMesh(8, 8)
	f := func(a8, b8 uint8, bias uint8) bool {
		src := topology.NodeID(int(a8) % m.Nodes())
		dst := topology.NodeID(int(b8) % m.Nodes())
		cong := func(p topology.Port) int { return int(bias) ^ int(p) }
		got := WestFirst(m, src, dst, cong)
		if src == dst {
			return got == topology.Local
		}
		next, ok := m.Neighbor(src, got)
		if !ok {
			return false
		}
		return m.HopDistance(next, dst) == m.HopDistance(src, dst)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWestFirstGoesWestFirst(t *testing.T) {
	m := topology.NewMesh(6, 6)
	src := m.ID(topology.Coord{X: 4, Y: 2})
	uniform := func(topology.Port) int { return 0 }
	// Destination to the north-west: must route West regardless of congestion.
	dst := m.ID(topology.Coord{X: 1, Y: 0})
	if got := WestFirst(m, src, dst, uniform); got != topology.West {
		t.Errorf("west-first chose %v, want West", got)
	}
	westBusy := func(p topology.Port) int {
		if p == topology.West {
			return 100
		}
		return 0
	}
	if got := WestFirst(m, src, dst, westBusy); got != topology.West {
		t.Errorf("west-first must not avoid West even when congested; chose %v", got)
	}
}

func TestWestFirstAdaptsEastSide(t *testing.T) {
	m := topology.NewMesh(6, 6)
	src := m.ID(topology.Coord{X: 1, Y: 1})
	dst := m.ID(topology.Coord{X: 4, Y: 4})
	eastBusy := func(p topology.Port) int {
		if p == topology.East {
			return 10
		}
		return 0
	}
	if got := WestFirst(m, src, dst, eastBusy); got != topology.South {
		t.Errorf("chose %v, want South when East congested", got)
	}
	southBusy := func(p topology.Port) int {
		if p == topology.South {
			return 10
		}
		return 0
	}
	if got := WestFirst(m, src, dst, southBusy); got != topology.East {
		t.Errorf("chose %v, want East when South congested", got)
	}
}

func TestWestFirstTieBreaksTowardX(t *testing.T) {
	// With both productive ports equally congested the choice is
	// deterministic: the X dimension wins.
	m := topology.NewMesh(6, 6)
	uniform := func(topology.Port) int { return 3 }
	for _, tc := range []struct {
		src, dst topology.Coord
		want     topology.Port
	}{
		{topology.Coord{X: 1, Y: 1}, topology.Coord{X: 4, Y: 4}, topology.East},
		{topology.Coord{X: 1, Y: 4}, topology.Coord{X: 4, Y: 1}, topology.East},
	} {
		if got := WestFirst(m, m.ID(tc.src), m.ID(tc.dst), uniform); got != tc.want {
			t.Errorf("%v->%v tie-break chose %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestWestFirstNeverTurnsIntoWest(t *testing.T) {
	// Property: west-first routes only go West while the destination is
	// west; once travelling north/south/east they never pick West. We
	// verify by walking complete routes: any West move must happen before
	// any non-West move.
	m := topology.NewMesh(8, 8)
	f := func(a8, b8, bias uint8) bool {
		src := topology.NodeID(int(a8) % m.Nodes())
		dst := topology.NodeID(int(b8) % m.Nodes())
		cong := func(p topology.Port) int { return int(bias) ^ int(p) }
		cur := src
		sawNonWest := false
		for steps := 0; cur != dst && steps < 64; steps++ {
			p := WestFirst(m, cur, dst, cong)
			if p == topology.West {
				if sawNonWest {
					return false // prohibited turn into West
				}
			} else if p != topology.Local {
				sawNonWest = true
			}
			next, ok := m.Neighbor(cur, p)
			if !ok {
				return false
			}
			cur = next
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWestFirstSelfIsLocal(t *testing.T) {
	m := topology.NewMesh(4, 4)
	if got := WestFirst(m, 5, 5, func(topology.Port) int { return 0 }); got != topology.Local {
		t.Errorf("self route %v", got)
	}
}

func TestWestFirstStraightLine(t *testing.T) {
	// A destination in the same row or column has one productive port,
	// whatever the congestion on it.
	m := topology.NewMesh(4, 4)
	busy := func(topology.Port) int { return 100 }
	for _, tc := range []struct {
		src, dst topology.NodeID
		want     topology.Port
	}{
		{5, 7, topology.East},
		{7, 5, topology.West},
		{5, 13, topology.South},
		{13, 5, topology.North},
	} {
		if got := WestFirst(m, tc.src, tc.dst, busy); got != tc.want {
			t.Errorf("straight route %d->%d = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
}
