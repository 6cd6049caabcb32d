package flit

import (
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	want := map[Type]string{Head: "H", Body: "B", Tail: "T", HeadTail: "HT"}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q want %q", ty, ty.String(), s)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type produced empty string")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{DataPacket: "data", SetupMsg: "setup", TeardownMsg: "teardown", AckMsg: "ack"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q want %q", k, k.String(), s)
		}
	}
}

func TestExplodeSingleFlit(t *testing.T) {
	p := &Packet{Flits: 1, Kind: SetupMsg}
	fs := p.ExplodeInto()
	if len(fs) != 1 {
		t.Fatalf("got %d flits", len(fs))
	}
	f := fs[0]
	if f.Type != HeadTail || !f.IsHead() || !f.IsTail() {
		t.Fatalf("single flit not HeadTail: %+v", f)
	}
}

func TestExplodeMultiFlit(t *testing.T) {
	p := &Packet{Flits: 5}
	fs := p.ExplodeInto()
	if len(fs) != 5 {
		t.Fatalf("got %d flits", len(fs))
	}
	if fs[0].Type != Head {
		t.Error("first flit not Head")
	}
	for i := 1; i < 4; i++ {
		if fs[i].Type != Body {
			t.Errorf("flit %d not Body", i)
		}
	}
	if fs[4].Type != Tail {
		t.Error("last flit not Tail")
	}
	for i, f := range fs {
		if f.Seq != i {
			t.Errorf("flit %d has Seq %d", i, f.Seq)
		}
		if f.Pkt != p {
			t.Errorf("flit %d does not point at packet", i)
		}
	}
}

func TestExplodeZeroFlitsDefaultsToOne(t *testing.T) {
	fs := (&Packet{Flits: 0}).ExplodeInto()
	if len(fs) != 1 || fs[0].Type != HeadTail {
		t.Fatalf("zero-flit packet exploded to %d flits", len(fs))
	}
}

func TestExplodeCSMarking(t *testing.T) {
	p := &Packet{Flits: 4, Switching: CircuitSwitched}
	for _, f := range p.ExplodeInto() {
		if !f.CS {
			t.Fatal("circuit-switched packet produced non-CS flit")
		}
	}
	q := &Packet{Flits: 4, Switching: PacketSwitched}
	for _, f := range q.ExplodeInto() {
		if f.CS {
			t.Fatal("packet-switched packet produced CS flit")
		}
	}
}

func TestExplodeStructureProperty(t *testing.T) {
	// Property: exactly one head, exactly one tail, seq is 0..n-1.
	f := func(n8 uint8) bool {
		n := int(n8%16) + 1
		fs := (&Packet{Flits: n}).ExplodeInto()
		if len(fs) != n {
			return false
		}
		heads, tails := 0, 0
		for i, fl := range fs {
			if fl.Seq != i {
				return false
			}
			if fl.IsHead() {
				heads++
			}
			if fl.IsTail() {
				tails++
			}
		}
		return heads == 1 && tails == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencies(t *testing.T) {
	p := &Packet{CreatedAt: 10, InjectedAt: 15, EjectedAt: 40}
	if l := p.NetworkLatency(); l != 25 {
		t.Errorf("network latency %d, want 25", l)
	}
	if l := p.TotalLatency(); l != 30 {
		t.Errorf("total latency %d, want 30", l)
	}
	unfinished := &Packet{CreatedAt: 10, InjectedAt: 15}
	if l := unfinished.NetworkLatency(); l != -1 {
		t.Errorf("unfinished network latency %d, want -1", l)
	}
	if l := unfinished.TotalLatency(); l != -1 {
		t.Errorf("unfinished total latency %d, want -1", l)
	}
	fresh := &Packet{}
	if l := fresh.NetworkLatency(); l != -1 {
		t.Errorf("fresh packet latency %d, want -1", l)
	}
}
