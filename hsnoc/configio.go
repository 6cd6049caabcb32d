package hsnoc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"tdmnoc/internal/router"
)

// SaveConfig writes cfg as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

// LoadConfig reads a JSON configuration written by SaveConfig (unknown
// fields are rejected so typos fail loudly) and validates it.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("hsnoc: bad config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Hash returns a canonical fingerprint of the configuration: a SHA-256
// over its stable field-order JSON encoding (Go marshals struct fields
// in declaration order). Two configs hash equal exactly when every
// field, including Seed, is equal — Workers is excluded because
// executor parallelism never changes simulation results, and the
// invariant-checking knobs (CheckInvariants, CheckInterval) are
// excluded because checking only observes a run. The hash is the cache
// key of the campaign engine, so adding, removing or reordering Config
// fields invalidates cached campaign results (by design: a hash must
// never collide across semantically different configs).
func (c Config) Hash() string {
	c.Workers = 0
	c.CheckInvariants = false
	c.CheckInterval = 0
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("hsnoc: config hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks a configuration for structural errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("hsnoc: mesh %dx%d invalid", c.Width, c.Height)
	}
	if c.Mode < PacketSwitched || c.Mode > HybridSDM {
		return fmt.Errorf("hsnoc: unknown mode %d", c.Mode)
	}
	if c.VCs < 0 || c.BufferDepth < 0 || c.SlotTableEntries < 0 || c.Planes < 0 || c.SAIterations < 0 {
		return fmt.Errorf("hsnoc: negative structural parameter")
	}
	if c.Mode != HybridSDM && c.VCs > router.MaxVCs {
		return fmt.Errorf("hsnoc: %d VCs per port exceeds the router's limit of %d", c.VCs, router.MaxVCs)
	}
	if c.CheckInterval < 0 {
		return fmt.Errorf("hsnoc: negative check interval %d", c.CheckInterval)
	}
	if c.Mode == HybridSDM && (c.PathSharing || c.VCPowerGating || c.LatencyBasedVCGating) {
		return fmt.Errorf("hsnoc: TDM options set on an SDM configuration")
	}
	if c.Mode == HybridSDM && c.CheckInvariants {
		return fmt.Errorf("hsnoc: CheckInvariants is not available for HybridSDM (its engine has no invariant layer)")
	}
	if c.Mode != HybridTDM && c.PathSharing {
		return fmt.Errorf("hsnoc: PathSharing requires HybridTDM")
	}
	if c.DLTEntries < 0 {
		return fmt.Errorf("hsnoc: negative DLT size %d", c.DLTEntries)
	}
	if c.SlotInit < 0 {
		return fmt.Errorf("hsnoc: negative SlotInit %d", c.SlotInit)
	}
	if c.SlotInit > 0 {
		if c.Mode != HybridTDM {
			return fmt.Errorf("hsnoc: SlotInit requires HybridTDM")
		}
		slots := c.SlotTableEntries
		if slots == 0 {
			slots = 128
		}
		if c.SlotInit > slots {
			return fmt.Errorf("hsnoc: SlotInit %d exceeds the %d-entry slot table", c.SlotInit, slots)
		}
	}
	if (len(c.PinnedFlows) > 0 || c.RestrictSetups) && c.Mode != HybridTDM {
		return fmt.Errorf("hsnoc: flow pinning requires HybridTDM")
	}
	nodes := c.Width * c.Height
	for _, p := range c.PinnedFlows {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			return fmt.Errorf("hsnoc: pinned flow %d->%d outside the %dx%d mesh", p.Src, p.Dst, c.Width, c.Height)
		}
	}
	if c.GatedPlanes != 0 {
		if c.Mode != HybridSDM {
			return fmt.Errorf("hsnoc: GatedPlanes requires HybridSDM")
		}
		planes := c.Planes
		if planes == 0 {
			planes = 4
		}
		if c.GatedPlanes < 0 || c.GatedPlanes > planes-2 {
			return fmt.Errorf("hsnoc: GatedPlanes %d of %d planes (at least 2 must stay on)", c.GatedPlanes, planes)
		}
	}
	if c.AdaptiveEpoch < 0 || c.AdaptiveTopK < 0 {
		return fmt.Errorf("hsnoc: negative adaptive parameter")
	}
	if c.AdaptiveEpoch > 0 && c.Mode != HybridTDM {
		return fmt.Errorf("hsnoc: AdaptiveEpoch requires HybridTDM")
	}
	return nil
}
