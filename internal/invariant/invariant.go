// Package invariant is the runtime checking layer of the simulator: an
// optional, zero-dependency collector for protocol-invariant violations
// (flit conservation, credit consistency, slot-table ownership, VC mask
// consistency) and a rolling FNV-1a digest of the simulation state that
// makes a serial-vs-parallel divergence detectable at the first
// differing cycle instead of in final statistics.
//
// The package itself knows nothing about routers or NIs; it only
// provides the Checker (violation sink + cadence + rolling digest) and
// the Hasher. Each stateful component has one state walk (flit.Walk)
// that feeds both.
package invariant

import "fmt"

// Violation is one detected invariant break, with enough context to
// reproduce: the cycle it was detected at, the router (tile) it was
// detected on (-1 for network-wide checks like flit conservation), the
// invariant kind and a human-readable detail line.
type Violation struct {
	Cycle  int64  `json:"cycle"`
	Router int    `json:"router"` // -1 for network-level invariants
	Kind   string `json:"kind"`   // "conservation" | "credit" | "slot-table" | "mask-consistency"
	Detail string `json:"detail"`
}

// String formats the violation for logs and test failures.
func (v Violation) String() string {
	if v.Router < 0 {
		return fmt.Sprintf("cycle %d network %s: %s", v.Cycle, v.Kind, v.Detail)
	}
	return fmt.Sprintf("cycle %d router %d %s: %s", v.Cycle, v.Router, v.Kind, v.Detail)
}

// MaxStoredViolations bounds the violations a Checker keeps. A single
// broken invariant (e.g. a leaked flit) re-fires on every subsequent
// check, so the count can grow without bound while the first few
// reports carry all the diagnostic value.
const MaxStoredViolations = 64

// Checker accumulates violations and the rolling state digest for one
// network instance. It is not goroutine-safe: all checks run serially
// in the between-cycle management step, outside the executor phases.
type Checker struct {
	interval int64
	count    int64
	stored   []Violation
	digest   uint64
}

// NewChecker builds a checker that is due every interval cycles
// (interval <= 1 means every cycle).
func NewChecker(interval int) *Checker {
	if interval < 1 {
		interval = 1
	}
	return &Checker{interval: int64(interval), digest: fnvOffset}
}

// Due reports whether checks should run at cycle now.
func (c *Checker) Due(now int64) bool { return now%c.interval == 0 }

// Report records one violation. The first MaxStoredViolations are kept;
// the rest only count.
func (c *Checker) Report(cycle int64, router int, kind, detail string) {
	c.count++
	if len(c.stored) < MaxStoredViolations {
		c.stored = append(c.stored, Violation{Cycle: cycle, Router: router, Kind: kind, Detail: detail})
	}
}

// Count returns the total violations seen (including unstored ones).
func (c *Checker) Count() int64 { return c.count }

// Violations returns a copy of the stored violations.
func (c *Checker) Violations() []Violation {
	out := make([]Violation, len(c.stored))
	copy(out, c.stored)
	return out
}

// Roll folds one cycle's state digest into the rolling digest.
func (c *Checker) Roll(stateDigest uint64) {
	h := Hasher{sum: c.digest}
	h.Uint64(stateDigest)
	c.digest = h.Sum()
}

// Digest returns the rolling digest over every checked cycle. Two runs
// of the same seeded configuration must produce equal rolling digests
// regardless of executor parallelism.
func (c *Checker) Digest() uint64 { return c.digest }

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hasher is an incremental FNV-1a 64-bit hash over simulation state.
// The zero value is NOT ready to use; construct with NewHasher (or
// start from another hasher's Sum).
type Hasher struct {
	sum uint64
}

// NewHasher returns a hasher at the FNV offset basis.
func NewHasher() *Hasher { return &Hasher{sum: fnvOffset} }

// Byte folds one byte.
func (h *Hasher) Byte(b byte) {
	h.sum = (h.sum ^ uint64(b)) * fnvPrime
}

// Uint64 folds an unsigned 64-bit value, little-endian.
func (h *Hasher) Uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v >> (8 * i)))
	}
}

// Int64 folds a signed 64-bit value.
func (h *Hasher) Int64(v int64) { h.Uint64(uint64(v)) }

// Int folds an int.
func (h *Hasher) Int(v int) { h.Uint64(uint64(int64(v))) }

// Bool folds a boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Sum returns the current hash value.
func (h *Hasher) Sum() uint64 { return h.sum }
