package hsnoc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"tdmnoc/internal/router"
	"tdmnoc/internal/sdm"
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

// ModelVersion names the simulator's behaviour in every campaign cache
// key. Bump it in the change that moves a simulated number on purpose,
// so result stores and fleet data dirs stop serving the old physics as
// cache hits. At 0 keys leave it out, which is why introducing it moved
// no key, golden or store.
const ModelVersion = 0

// Hash returns a canonical fingerprint of the configuration: a SHA-256
// over its canonical JSON encoding (appendJSON). Two configs hash equal
// exactly when every field, including Seed, is equal — Workers is
// excluded because executor parallelism never changes simulation
// results, and the invariant-checking knobs (CheckInvariants,
// CheckInterval) are excluded because checking only observes a run.
// The hash is the cache key of the campaign engine, so a change to the
// encoding invalidates cached campaign results (by design: a hash must
// never collide across semantically different configs).
func (c Config) Hash() string {
	var buf [2 * sha256.Size]byte
	return string(c.AppendHash(buf[:0]))
}

// AppendHash appends Hash's hex digits to dst.
func (c Config) AppendHash(dst []byte) []byte {
	c.Workers = 0
	c.CheckInvariants = false
	c.CheckInterval = 0
	var buf [512]byte
	sum := sha256.Sum256(c.appendJSON(buf[:0]))
	return hex.AppendEncode(dst, sum[:])
}

// appendJSON appends the encoding json.Marshal gave c when Config still
// declared BufferDepth, Planes and DLTEntries, written by hand because
// reflection dominated the cost of expanding a campaign spec. Those
// three are the model's constants now, and their bytes stay at their
// positions with the values every DefaultConfig carried (5, 4 and 0),
// so no job key moved when they left Config. TestConfigHashMatchesJSON
// and FuzzConfigHash hold the encoding equal to json.Marshal of that
// earlier Config, so a field added to Config and not here fails the
// tests.
func (c Config) appendJSON(b []byte) []byte {
	b = appendInt(b, `{"Width":`, c.Width)
	b = appendInt(b, `,"Height":`, c.Height)
	b = appendInt(b, `,"Mode":`, int(c.Mode))
	b = appendInt(b, `,"VCs":`, c.VCs)
	b = append(b, `,"BufferDepth":5`...)
	b = appendInt(b, `,"SlotTableEntries":`, c.SlotTableEntries)
	b = appendBool(b, `,"DisableTimeSlotStealing":`, c.DisableTimeSlotStealing)
	b = appendBool(b, `,"PathSharing":`, c.PathSharing)
	b = appendBool(b, `,"VCPowerGating":`, c.VCPowerGating)
	b = appendBool(b, `,"LatencyBasedVCGating":`, c.LatencyBasedVCGating)
	b = appendBool(b, `,"DisableDynamicSlotSizing":`, c.DisableDynamicSlotSizing)
	b = appendInt(b, `,"SAIterations":`, c.SAIterations)
	b = append(b, `,"Planes":4`...)
	b = strconv.AppendUint(append(b, `,"Seed":`...), c.Seed, 10)
	b = appendInt(b, `,"Workers":`, c.Workers)
	b = appendBool(b, `,"CheckInvariants":`, c.CheckInvariants)
	b = appendInt(b, `,"CheckInterval":`, c.CheckInterval)
	b = append(b, `,"DLTEntries":0`...)
	b = appendInt(b, `,"SlotInit":`, c.SlotInit)
	b = append(b, `,"PinnedFlows":`...)
	if c.PinnedFlows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range c.PinnedFlows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"src":`, p.Src)
			b = appendInt(b, `,"dst":`, p.Dst)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendBool(b, `,"RestrictSetups":`, c.RestrictSetups)
	b = appendInt(b, `,"GatedPlanes":`, c.GatedPlanes)
	b = strconv.AppendInt(append(b, `,"AdaptiveEpoch":`...), c.AdaptiveEpoch, 10)
	b = appendInt(b, `,"AdaptiveTopK":`, c.AdaptiveTopK)
	return append(b, '}')
}

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// Validate checks a configuration for structural errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("hsnoc: mesh %dx%d invalid", c.Width, c.Height)
	}
	if c.Mode < PacketSwitched || c.Mode > HybridSDM {
		return fmt.Errorf("hsnoc: unknown mode %d", c.Mode)
	}
	if c.VCs < 0 || c.SlotTableEntries < 0 || c.SAIterations < 0 {
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
		if c.GatedPlanes < 0 || c.GatedPlanes > sdm.DefaultPlanes-2 {
			return fmt.Errorf("hsnoc: GatedPlanes %d of %d planes (at least 2 must stay on)", c.GatedPlanes, sdm.DefaultPlanes)
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
