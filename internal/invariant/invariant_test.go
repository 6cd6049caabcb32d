package invariant

import (
	"hash/fnv"
	"testing"
)

// TestHasherMatchesStdlibFNV pins the byte-level hash to the canonical
// FNV-1a 64-bit algorithm, so a digest can be reproduced outside the
// simulator.
func TestHasherMatchesStdlibFNV(t *testing.T) {
	h := NewHasher()
	ref := fnv.New64a()
	data := []byte{0, 1, 2, 0xff, 0x80, 42}
	for _, b := range data {
		h.Byte(b)
	}
	ref.Write(data)
	if h.Sum() != ref.Sum64() {
		t.Fatalf("Hasher = %016x, stdlib fnv-1a = %016x", h.Sum(), ref.Sum64())
	}
}

func TestHasherValueEncodings(t *testing.T) {
	// Uint64 must be order-sensitive and width-stable: the same value
	// always hashes identically, different values differently.
	a, b, c := NewHasher(), NewHasher(), NewHasher()
	a.Uint64(1)
	a.Uint64(2)
	b.Uint64(1)
	b.Uint64(2)
	c.Uint64(2)
	c.Uint64(1)
	if a.Sum() != b.Sum() {
		t.Error("identical sequences hash differently")
	}
	if a.Sum() == c.Sum() {
		t.Error("swapped sequence hashes identically")
	}
	// Int folds negatives without collapsing onto small positives.
	n, p := NewHasher(), NewHasher()
	n.Int(-1)
	p.Int(1)
	if n.Sum() == p.Sum() {
		t.Error("Int(-1) collides with Int(1)")
	}
	tr, fa := NewHasher(), NewHasher()
	tr.Bool(true)
	fa.Bool(false)
	if tr.Sum() == fa.Sum() {
		t.Error("Bool values collide")
	}
}

func TestCheckerCadence(t *testing.T) {
	c := NewChecker(0) // normalised to every cycle
	for now := int64(0); now < 5; now++ {
		if !c.Due(now) {
			t.Errorf("every-cycle checker not due at %d", now)
		}
	}
	c4 := NewChecker(4)
	due := 0
	for now := int64(0); now < 16; now++ {
		if c4.Due(now) {
			due++
		}
	}
	if due != 4 {
		t.Errorf("interval-4 checker due %d times in 16 cycles, want 4", due)
	}
}

func TestCheckerStorageCap(t *testing.T) {
	c := NewChecker(1)
	for i := 0; i < MaxStoredViolations+10; i++ {
		c.Report(int64(i), i, "credit", "d")
	}
	if c.Count() != int64(MaxStoredViolations+10) {
		t.Errorf("Count = %d, want %d", c.Count(), MaxStoredViolations+10)
	}
	vs := c.Violations()
	if len(vs) != MaxStoredViolations {
		t.Fatalf("stored %d, want cap %d", len(vs), MaxStoredViolations)
	}
	if vs[0].Cycle != 0 || vs[0].Router != 0 {
		t.Errorf("first stored violation = %+v, want the earliest report", vs[0])
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// checker's record.
	vs[0].Kind = "tampered"
	if c.Violations()[0].Kind != "credit" {
		t.Error("Violations() exposes internal storage")
	}
}

func TestCheckerRollingDigest(t *testing.T) {
	a, b := NewChecker(1), NewChecker(1)
	for _, d := range []uint64{7, 9, 11} {
		a.Roll(d)
		b.Roll(d)
	}
	if a.Digest() != b.Digest() {
		t.Error("identical state sequences give different rolling digests")
	}
	c := NewChecker(1)
	c.Roll(9)
	c.Roll(7)
	c.Roll(11)
	if c.Digest() == a.Digest() {
		t.Error("reordered state sequence gives the same rolling digest")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Cycle: 12, Router: 3, Kind: "credit", Detail: "vc 1 short"}
	if got, want := v.String(), "cycle 12 router 3 credit: vc 1 short"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	n := Violation{Cycle: 4, Router: -1, Kind: "conservation", Detail: "1 leaked"}
	if got, want := n.String(), "cycle 4 network conservation: 1 leaked"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
