package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"tdmnoc/internal/policy"
)

// keyConfig mirrors Params as the public Config was when it still
// declared BufferDepth, Planes, DLTEntries and the removed online
// controller's AdaptiveEpoch and AdaptiveTopK: its json.Marshal encoding
// is what every stored job key hashes. appendJSON writes the five at
// what every job held.
type keyConfig struct {
	Width, Height            int
	Mode                     Mode
	VCs, BufferDepth         int
	SlotTableEntries         int
	DisableTimeSlotStealing  bool
	PathSharing              bool
	VCPowerGating            bool
	LatencyBasedVCGating     bool
	DisableDynamicSlotSizing bool
	SAIterations             int
	Planes                   int
	Seed                     uint64
	Workers                  int
	CheckInvariants          bool
	CheckInterval            int
	DLTEntries               int
	SlotInit                 int
	PinnedFlows              []policy.FlowPin
	RestrictSetups           bool
	GatedPlanes              int
	AdaptiveEpoch            int64
	AdaptiveTopK             int
}

// asKeyConfig copies c into a keyConfig field by field, with the five
// retired fields fixed at 5, 4, 0, 0 and 0. A Params field the mirror
// lacks fails the test: appendJSON and keyConfig must learn it.
func asKeyConfig(t testing.TB, c Params) keyConfig {
	p := keyConfig{BufferDepth: 5, Planes: 4, DLTEntries: 0}
	src, dst := reflect.ValueOf(c), reflect.ValueOf(&p).Elem()
	if dst.NumField() != src.NumField()+5 {
		t.Fatalf("keyConfig has %d fields, Params %d: only the five retired ones may differ", dst.NumField(), src.NumField())
	}
	for i := range src.NumField() {
		name := src.Type().Field(i).Name
		f := dst.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("Params.%s is not in keyConfig: teach it and appendJSON the field", name)
		}
		f.Set(src.Field(i))
	}
	return p
}

// refHash is Hash as it was first written: SHA-256 over json.Marshal,
// of the Config the keys were first built from.
func refHash(t testing.TB, c Params) string {
	c.Workers, c.CheckInvariants, c.CheckInterval = 0, false, 0
	b, err := json.Marshal(asKeyConfig(t, c))
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("Params holds a %s (%s): teach appendJSON and fillConfig its encoding", v.Kind(), v.Type())
	}
}

// checkAppendJSON compares appendJSON and Hash with their references.
func checkAppendJSON(t testing.TB, c Params) {
	want, err := json.Marshal(asKeyConfig(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if got, want := c.Hash(), refHash(t, c); got != want {
		t.Fatalf("Hash = %s, want %s", got, want)
	}
}

// TestConfigHashMatchesJSON: the hand-written encoding is json.Marshal's
// of keyConfig, byte for byte, with every exported int field set to a distinct
// non-zero value and the bools alternating (so a field appendJSON
// misses, misorders or reads from a neighbour shows), negative ints and
// the largest seed, and PinnedFlows nil, empty and filled.
func TestConfigHashMatchesJSON(t *testing.T) {
	checkAppendJSON(t, Params{})
	checkAppendJSON(t, DefaultConfig(6, 6).Params)
	extreme := DefaultConfig(-1, math.MinInt).Params
	extreme.Seed = math.MaxUint64
	checkAppendJSON(t, extreme)
	for _, start := range []struct {
		from uint64
		step int64
	}{{1, 1}, {2, 1}, {math.MaxUint64, -1}} { // the second pass flips the bools, the third negates the ints
		for _, pins := range [][]policy.FlowPin{nil, {}, {{Src: 3, Dst: -4}, {Src: 0, Dst: math.MaxInt}}} {
			n := start.from
			var c Params
			fillConfig(t, reflect.ValueOf(&c).Elem(), func() uint64 { v := n; n += uint64(start.step); return v })
			c.PinnedFlows = pins
			checkAppendJSON(t, c)
		}
	}
}

// FuzzConfigHash: appendJSON is json.Marshal's encoding of keyConfig,
// and Hash is
// the reference hash, for every field value the fuzzer can reach.
func FuzzConfigHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x06\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Params
		fillConfig(t, reflect.ValueOf(&c).Elem(), func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		})
		checkAppendJSON(t, c)
	})
}
