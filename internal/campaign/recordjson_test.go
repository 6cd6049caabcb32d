package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// sampleRecord is a synthetic job's record as a store holds it.
func sampleRecord() Record {
	return Record{
		Key:     "3f9a0c7d2b1e4f5a6c8d9e0f1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d",
		Label:   "tdm/tornado/6x6/s128/r0.150/seed100001",
		Mode:    "Hybrid-TDM",
		Pattern: "tornado",
		Width:   6, Height: 6, Slots: 128,
		Rate: 0.15, Seed: 100001, Warmup: 2000, Measure: 8000,
		Result: stats.RunRecord{
			Runs: 1, Cycles: 8000, Packets: 8640,
			NetLatencySum: 152113.99999999997, TotalLatencySum: 163502.5,
			FlitCycles: 1199.9999999999998, PayloadCycles: 959.2,
			CSFracPackets: 4120.000000000001, ConfigFracPackets: 0.0213,
			Circuits: 212, ActiveSlots: 40, EnergyPJ: 3.1415926535e7,
		},
	}
}

// mixRecord is a Section V record: every omitempty counter set and
// both energy splits.
func mixRecord() Record {
	r := sampleRecord()
	r.Label, r.Pattern, r.Rate, r.Slots = "tdm/mix:EQUAKE+LPS/6x6/s64/seed1", "mix:EQUAKE+LPS", 0, 64
	res := &r.Result
	res.Hitchhikes, res.VicinityRides = 17, 3
	res.CPUInstructions, res.GPUIterations = 912345, 4411
	res.GPUFlitCycles, res.GPUCSFlitCycles = 2.5e-7, 1e21
	res.DynamicPJ = map[string]float64{"link": 1.5, "buffer": 2e-9, "arbiter": 0, "crossbar": 7, "clock": 1e22, "cs-component": 0.125}
	res.StaticPJ = map[string]float64{"buffer": 3, "link": -0.0}
	return r
}

// checkRecordEncode holds AppendJSON to json.Marshal: the same bytes,
// or the same error with the buffer given back unchanged. It returns
// the encoding (nil on error).
func checkRecordEncode(t *testing.T, r Record) []byte {
	t.Helper()
	want, wantErr := json.Marshal(r)
	prefix := []byte("prefix")
	got, err := r.AppendJSON(prefix)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
	case err != nil:
		if string(got) != "prefix" {
			t.Fatalf("AppendJSON failed but returned %q, want the buffer it was given", got)
		}
		return nil
	case !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix":
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant prefix%s", got, want)
	}
	return want
}

// checkRecordDecode holds DecodeRecord to json.Unmarshal: both succeed
// with equal records, or both fail.
func checkRecordDecode(t *testing.T, data []byte) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(data, &want)
	got, err := DecodeRecord(data)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("DecodeRecord(%q): error %v, json.Unmarshal error %v", data, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeRecord(%q):\n got %+v\nwant %+v", data, got, want)
	}
}

// fillValue sets every field reachable from v to a distinct non-zero
// value. A kind it does not know fails the test: the codec must learn
// the new field's encoding first.
func fillValue(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString("s" + strings.Repeat("x", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		v.Set(reflect.ValueOf(map[string]float64{"b": float64(*n), "a": 1}))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), n)
		}
	case reflect.Pointer:
		if v.Type() != reflect.TypeOf(&obs.Summary{}) {
			t.Fatalf("record holds a %s: teach the record codec its encoding", v.Type())
		}
		v.Set(reflect.ValueOf(&obs.Summary{Steals: int64(*n)}))
	default:
		t.Fatalf("record holds a %s (%s): teach the record codec its encoding", v.Kind(), v.Type())
	}
}

// TestRecordCodecCoversEveryField: with every field of Record and its
// RunRecord set, AppendJSON is json.Marshal, and without the telemetry
// (which stays on encoding/json) the hand-written decoder, not the
// fallback, reads every field back.
func TestRecordCodecCoversEveryField(t *testing.T) {
	var r Record
	n := 0
	fillValue(t, reflect.ValueOf(&r).Elem(), &n)
	line := checkRecordEncode(t, r)
	checkRecordDecode(t, line)
	r.Telemetry, r.Cached = nil, false
	line = checkRecordEncode(t, r)
	got, rest, ok := CutRecord(line)
	if !ok || len(rest) != 0 || !reflect.DeepEqual(got, r) {
		t.Fatalf("CutRecord(%s) = %+v, %q, %v; want the record back", line, got, rest, ok)
	}
	for _, r := range []Record{{}, sampleRecord(), mixRecord()} {
		line := checkRecordEncode(t, r)
		if got, rest, ok := CutRecord(line); !ok || len(rest) != 0 || !reflect.DeepEqual(got, r) {
			t.Fatalf("CutRecord(%s) = %+v, %q, %v; want the record back", line, got, rest, ok)
		}
	}
}

// recordVariants are non-canonical spellings of a canonical line, each
// for DecodeRecord to hand to encoding/json: reordered, re-spaced,
// escaped, extended with a newer version's field, with telemetry, and
// truncated.
func recordVariants(line []byte) [][]byte {
	s := string(line)
	var indented bytes.Buffer
	json.Indent(&indented, line, "", "  ")
	key, rest, _ := strings.Cut(strings.TrimPrefix(s, "{"), ",")
	out := [][]byte{
		[]byte("{" + rest[:len(rest)-1] + "," + key + "}"),
		indented.Bytes(),
		[]byte(" " + s + "\n"),
		[]byte(strings.Replace(s, `"mode":"`, `"mode":"A`, 1)),
		[]byte(strings.Replace(s, `"key"`, `"KEY"`, 1)),
		[]byte(strings.Replace(s, `"width":6`, `"width":6.0`, 1)),
		[]byte(strings.Replace(s, `"seed":`, `"seed":-`, 1)),
		[]byte(strings.Replace(s, `"label":`, `"label":null,"label":`, 1)),
		[]byte(s[:len(s)-1] + `,"gpu_model":"v2"}`),
		[]byte(s[:len(s)-1] + `,"telemetry":{"steals":3}}`),
		[]byte(s + s),
	}
	for _, cut := range []int{1, len(s) / 3, len(s) / 2, len(s) - 1} {
		out = append(out, []byte(s[:cut]))
	}
	return out
}

// FuzzRecordJSON: AppendJSON is json.Marshal for records built from
// fuzzed strings (HTML, control and invalid-UTF-8 bytes), floats (NaN,
// ±Inf, subnormals, the 1e-6 and 1e21 format edges) and maps, with and
// without an error and telemetry; and DecodeRecord is json.Unmarshal
// for any bytes, canonical or not.
func FuzzRecordJSON(f *testing.F) {
	for _, r := range []Record{sampleRecord(), mixRecord(), {Key: "k", Err: "job timed out <after 1ns> & cancelled"}} {
		line, _ := r.AppendJSON(nil)
		f.Add(line, r.Label, r.Rate, r.Result.EnergyPJ, r.Result.Packets, uint8(0))
		for _, v := range recordVariants(line) {
			f.Add(v, "", 0.0, 0.0, int64(0), uint8(0))
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 2.2250738585072014e-308, 1e-6, 9.999999999999999e-7,
		1e21, 9.999999999999999e20, -1e-7, math.Copysign(0, -1), math.MaxFloat64} {
		f.Add([]byte{}, "<a href=\"x\">&\u2028\u2029\x00\x1f\x7f\xff\xfe", x, -x, int64(math.MinInt64), uint8(0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, x, y float64, n int64, flags uint8) {
		checkRecordDecode(t, data)

		r := sampleRecord()
		r.Label, r.Pattern, r.Rate, r.Result.NetLatencySum = s, s+"/"+s, x, y
		r.Width, r.Result.Packets, r.Result.Hitchhikes = int(n), n, n>>3
		if flags&1 != 0 {
			r.Err = s
		}
		if flags&2 != 0 {
			r.Result.DynamicPJ = map[string]float64{s: x, "link": y, s + "\x00": 1}
		}
		if flags&4 != 0 {
			r.Result.StaticPJ = map[string]float64{}
			r.Result.GPUFlitCycles = y
		}
		if flags&8 != 0 {
			r.Telemetry = &obs.Summary{Steals: n}
		}
		if flags&16 != 0 {
			r.Slots, r.Seed = 0, uint64(n)
		}
		if line := checkRecordEncode(t, r); line != nil {
			checkRecordDecode(t, line)
		}
	})
}
