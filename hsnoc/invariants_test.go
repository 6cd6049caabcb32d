package hsnoc

import (
	"errors"
	"testing"
)

// TestInvariantAccessorsDisabled checks the zero-cost path: with
// checking off every accessor reports "nothing".
func TestInvariantAccessorsDisabled(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	s := NewSynthetic(cfg, UniformRandom, 0.1)
	defer s.Close()
	s.Warmup(100)
	if s.RollingDigest() != 0 {
		t.Error("rolling digest accumulated with checking disabled")
	}
	if s.InvariantViolations() != nil || s.InvariantViolationCount() != 0 {
		t.Error("violations reported with checking disabled")
	}
	if err := s.InvariantError(); err != nil {
		t.Errorf("InvariantError = %v with checking disabled", err)
	}
	if s.StateDigest() == 0 {
		t.Error("StateDigest should work even with checking disabled")
	}
}

// TestViolationErrorMessage pins the error rendering campaign records
// and logs rely on.
func TestViolationErrorMessage(t *testing.T) {
	e := &ViolationError{Count: 3, Violations: []Violation{
		{Cycle: 41, Router: 14, Kind: "credit", Detail: "vc 0 short one credit"},
	}}
	const want = "hsnoc: 3 invariant violation(s); first: cycle 41 router 14 credit: vc 0 short one credit"
	if got := e.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	var as *ViolationError
	if !errors.As(error(e), &as) {
		t.Error("ViolationError does not satisfy errors.As")
	}
}
