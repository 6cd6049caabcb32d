package hsnoc

import (
	"encoding/json"
	"fmt"
	"io"
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
