package hsnoc

import (
	"fmt"

	"tdmnoc/internal/invariant"
)

// Violation is one runtime invariant violation detected with
// Config.CheckInvariants enabled: the cycle it was detected at, the
// router it concerns (-1 for network-wide invariants such as flit
// conservation), the invariant kind ("conservation", "credit",
// "slot-table", "mask-consistency") and a human-readable detail with
// enough context to reproduce the failure.
type Violation = invariant.Violation

// ViolationError reports that a checked run detected invariant
// violations. Count is the total detected; Violations holds the first
// stored ones (the storage is capped — a single broken invariant
// re-fires every checked cycle).
type ViolationError struct {
	Count      int64
	Violations []Violation
}

// Error summarises the violations, leading with the first (the one
// closest to the root cause).
func (e *ViolationError) Error() string {
	if len(e.Violations) == 0 {
		return fmt.Sprintf("hsnoc: %d invariant violation(s)", e.Count)
	}
	return fmt.Sprintf("hsnoc: %d invariant violation(s); first: %s", e.Count, e.Violations[0])
}

// StateDigest hashes the network's mutable state (router pipelines, NI
// queues and RNG streams, slot tables, clock, resize manager, online
// controller; not the endpoint models) into one 64-bit FNV-1a
// value. Two runs of the same seeded config must produce equal digests
// at equal cycles regardless of Workers; the first differing cycle
// pinpoints a determinism bug. Returns 0 for HybridSDM (no digest
// support).
func (s *Simulator) StateDigest() uint64 {
	if s.net == nil {
		return 0
	}
	return s.net.StateDigest()
}

// RollingDigest returns the FNV-1a digest folded over every checked
// cycle (0 unless Config.CheckInvariants is set).
func (s *Simulator) RollingDigest() uint64 {
	if s.net == nil {
		return 0
	}
	return s.net.RollingDigest()
}

// InvariantViolations returns the violations detected so far (nil when
// checking is disabled or the run is clean).
func (s *Simulator) InvariantViolations() []Violation {
	if s.net == nil {
		return nil
	}
	if vs := s.net.InvariantViolations(); len(vs) > 0 {
		return vs
	}
	return nil
}

// InvariantViolationCount returns the total violations detected,
// including ones beyond the storage cap.
func (s *Simulator) InvariantViolationCount() int64 {
	if s.net == nil {
		return 0
	}
	return s.net.InvariantCount()
}

// InvariantError returns a *ViolationError when the run detected
// violations, nil otherwise.
func (s *Simulator) InvariantError() error {
	if n := s.InvariantViolationCount(); n > 0 {
		return &ViolationError{Count: n, Violations: s.InvariantViolations()}
	}
	return nil
}
