package hsnoc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestConfigHashRoundTrip checks that the canonical hash survives a
// Save/Load round trip — the property the campaign result cache relies
// on when a spec is re-submitted from its persisted form.
func TestConfigHashRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	cfg.Mode = HybridTDM
	cfg.PathSharing = true
	cfg.VCPowerGating = true
	cfg.SlotTableEntries = 64
	cfg.Seed = 42

	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatalf("SaveConfig: %v", err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if got.Hash() != cfg.Hash() {
		t.Errorf("hash changed across round trip: %s != %s", got.Hash(), cfg.Hash())
	}
}

func TestConfigHashSensitivity(t *testing.T) {
	base := DefaultConfig(6, 6)
	base.Mode = HybridTDM
	h0 := base.Hash()
	if len(h0) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h0))
	}
	if h1 := base.Hash(); h1 != h0 {
		t.Errorf("hash not deterministic: %s != %s", h1, h0)
	}

	mods := map[string]func(Config) Config{
		"seed":       func(c Config) Config { c.Seed = 2; return c },
		"mode":       func(c Config) Config { c.Mode = PacketSwitched; return c },
		"width":      func(c Config) Config { c.Width = 8; return c },
		"slot table": func(c Config) Config { c.SlotTableEntries = 256; return c },
		"sharing":    func(c Config) Config { c.PathSharing = true; return c },
		"vc gating":  func(c Config) Config { c.VCPowerGating = true; return c },
	}
	for name, mod := range mods {
		if mod(base).Hash() == h0 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}

	// Workers is explicitly excluded: executor parallelism never
	// changes results, so parallel and serial runs must share cache
	// entries.
	w := base
	w.Workers = 8
	if w.Hash() != h0 {
		t.Errorf("Workers changed the hash: parallel and serial runs would miss each other's cache entries")
	}
}

// refHash is Hash as it was first written: SHA-256 over json.Marshal.
func refHash(c Config) string {
	c.Workers, c.CheckInvariants, c.CheckInterval = 0, false, 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fillConfig sets every exported field of v, recursively, from next:
// ints and uints take next's value, bools its low bit, and a slice gets
// next()%4 elements (nil when that is 0 and the next draw is even). A
// field of any other kind fails the test: appendJSON must learn it.
func fillConfig(t testing.TB, v reflect.Value, next func() uint64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(next()))
	case reflect.Uint64:
		v.SetUint(next())
	case reflect.Bool:
		v.SetBool(next()&1 == 1)
	case reflect.Slice:
		n := int(next() % 4)
		if n == 0 && next()&1 == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			fillConfig(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillConfig(t, v.Field(i), next)
			}
		}
	default:
		t.Fatalf("Config holds a %s (%s): teach appendJSON and fillConfig its encoding", v.Kind(), v.Type())
	}
}

// checkAppendJSON compares appendJSON and Hash with their references.
func checkAppendJSON(t testing.TB, c Config) {
	want, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if got, want := c.Hash(), refHash(c); got != want {
		t.Fatalf("Hash = %s, want %s", got, want)
	}
}

// TestConfigHashMatchesJSON: the hand-written encoding is json.Marshal's,
// byte for byte, with every exported int field set to a distinct
// non-zero value and the bools alternating (so a field appendJSON
// misses, misorders or reads from a neighbour shows), negative ints and
// the largest seed, and PinnedFlows nil, empty and filled.
func TestConfigHashMatchesJSON(t *testing.T) {
	checkAppendJSON(t, Config{})
	checkAppendJSON(t, DefaultConfig(6, 6))
	extreme := DefaultConfig(-1, math.MinInt)
	extreme.Seed, extreme.AdaptiveEpoch = math.MaxUint64, math.MinInt64
	checkAppendJSON(t, extreme)
	for _, start := range []struct {
		from uint64
		step int64
	}{{1, 1}, {2, 1}, {math.MaxUint64, -1}} { // the second pass flips the bools, the third negates the ints
		for _, pins := range [][]FlowPin{nil, {}, {{Src: 3, Dst: -4}, {Src: 0, Dst: math.MaxInt}}} {
			n := start.from
			var c Config
			fillConfig(t, reflect.ValueOf(&c).Elem(), func() uint64 { v := n; n += uint64(start.step); return v })
			c.PinnedFlows = pins
			checkAppendJSON(t, c)
		}
	}
}

// FuzzConfigHash: appendJSON is json.Marshal's encoding, and Hash is
// the reference hash, for every field value the fuzzer can reach.
func FuzzConfigHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x06\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		fillConfig(t, reflect.ValueOf(&c).Elem(), func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		})
		checkAppendJSON(t, c)
	})
}

// outcomeGoldens is the SHA-256 over the golden files that pin what the
// model computes, each file's path then its bytes, at ModelVersion.
var outcomeGoldens = struct {
	version int
	sha256  string
}{0, "ef5100018584c8d38014d8008671fd9418474343db0b951a17dfb398de0b0b24"}

// TestModelVersionPinsOutcomeGoldens: regenerating a golden that records
// simulated outcomes means the model changed, so ModelVersion must move
// with it, or every result store would keep serving the old physics.
func TestModelVersionPinsOutcomeGoldens(t *testing.T) {
	h := sha256.New()
	for _, path := range []string{
		"testdata/golden-hetero.json",
		"testdata/golden-replay.json",
		"testdata/golden-profile.json",
		"../internal/campaign/testdata/golden-sdm.sha256",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(path))
		h.Write(b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case ModelVersion != outcomeGoldens.version:
		t.Errorf("ModelVersion is %d but the outcome goldens are pinned at %d: pin %s with version %d", ModelVersion, outcomeGoldens.version, got, ModelVersion)
	case got != outcomeGoldens.sha256:
		t.Errorf("outcome goldens hash %s, pinned %s at ModelVersion %d: a regenerated golden means the model changed, so bump ModelVersion and pin the new hash with it",
			got, outcomeGoldens.sha256, ModelVersion)
	}
}
