package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"tdmnoc/hsnoc"
)

// The reference identity: the fmt and encoding/json formulas keys and
// labels were first built with. The append-based builders must write
// exactly these bytes, or every store and fleet data dir goes cold.

func refHex(preimage string) string {
	sum := sha256.Sum256([]byte(preimage))
	return hex.EncodeToString(sum[:])
}

// retiredFields are the Config fields the first keys were built with
// that are the model's constants now, or belonged to the removed online
// controller: each goes back after the field it followed, with the
// value every job held.
var retiredFields = []struct {
	after *regexp.Regexp
	field string
}{
	{regexp.MustCompile(`"VCs":-?\d+`), `"BufferDepth":5`},
	{regexp.MustCompile(`"SAIterations":-?\d+`), `"Planes":4`},
	{regexp.MustCompile(`"CheckInterval":-?\d+`), `"DLTEntries":0`},
	{regexp.MustCompile(`"GatedPlanes":-?\d+`), `"AdaptiveEpoch":0,"AdaptiveTopK":0`},
}

func refConfigHash(c hsnoc.Config) string {
	c.Workers, c.CheckInvariants, c.CheckInterval = 0, false, 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	for _, r := range retiredFields {
		b = r.after.ReplaceAll(b, []byte("${0},"+r.field))
	}
	return refHex(string(b))
}

// refKey is a job's key as withConfig built it.
func refKey(j Job) string {
	workload := j.PatternName
	if j.CPU == "" {
		workload = fmt.Sprintf("%s|%.9g", j.PatternName, j.Rate)
	}
	key := refHex(fmt.Sprintf("%s|%s|%d|%d", refConfigHash(j.Config), workload, j.Warmup, j.Measure))
	if j.TelemetryEvery > 0 {
		key = refHex(fmt.Sprintf("%s|telemetry%d", key, j.TelemetryEvery))
	}
	return key
}

// telemetryJob is j with telemetry sampled every cycles, keyed as
// expand keys the jobs of a telemetry_every spec.
func telemetryJob(j Job, every int) Job {
	j.TelemetryEvery = every
	j.Key = j.key(hsnoc.ModelVersion)
	return j
}

// refLabel is an expanded job's label as expand spelled it with
// Sprintf, for a modes spec (whose variant names are the modes').
func refLabel(j Job, slotTables int) string {
	slotTag := ""
	if j.Config.Mode == hsnoc.HybridTDM && slotTables > 1 {
		slotTag = fmt.Sprintf("/s%d", j.Config.SlotTableEntries)
	}
	if j.CPU != "" {
		return fmt.Sprintf("%s/%s/%dx%d%s/seed%d", j.Config.Mode, j.PatternName, j.Config.Width, j.Config.Height, slotTag, j.Config.Seed)
	}
	return fmt.Sprintf("%s/%v/%dx%d%s/r%.3f/seed%d", j.Config.Mode, j.Pattern, j.Config.Width, j.Config.Height, slotTag, j.Rate, j.Config.Seed)
}

// FuzzJobKey: synthetic, mix, telemetry, re-configured and profile keys,
// and expanded labels, equal the reference formulas for any rate, seed,
// regions and sampling interval.
func FuzzJobKey(f *testing.F) {
	for _, rate := range []float64{1.0 / 3, 1e-7, 0.30000000000000004, 0.1, 1, 0.05, -2.5, math.Inf(1), math.NaN()} {
		f.Add(rate, uint64(1), 8000, 40000, uint16(64), uint8(0x81))
	}
	f.Add(0.15, uint64(math.MaxUint64), -1, 0, uint16(0), uint8(0x16))
	// Two slot tables, with and without mixes and telemetry.
	f.Add(0.15, uint64(7), 8000, 40000, uint16(64), uint8(0xc1))
	f.Add(0.6, uint64(3), 100, 200, uint16(0), uint8(0x45))
	f.Fuzz(func(t *testing.T, rate float64, seed uint64, warmup, measure int, every uint16, flags uint8) {
		cfg := hsnoc.DefaultConfig(6, 6)
		cfg.Mode, cfg.Seed, cfg.PathSharing = hsnoc.Mode(flags%3), seed, flags&4 != 0
		cpus, gpus := hsnoc.CPUBenchmarks(), hsnoc.GPUBenchmarks()
		pat := hsnoc.Pattern(int(flags>>3) % 6)
		for _, j := range []Job{
			NewJob(cfg, pat, rate, warmup, measure, "syn"),
			NewMixJob(cfg, cpus[int(flags)%len(cpus)], gpus[int(flags>>2)%len(gpus)], warmup, measure, "mix"),
		} {
			if want := refKey(j); j.Key != want {
				t.Fatalf("%s key %s, want %s", j.PatternName, j.Key, want)
			}
			if every == 0 {
				continue
			}
			e := int(every)
			tel := telemetryJob(j, e)
			if want := refKey(tel); tel.Key != want {
				t.Fatalf("%s telemetry key %s, want %s", j.PatternName, tel.Key, want)
			}
			moved := cfg
			moved.Seed++
			if got, want := tel.withConfig(moved), refKey(Job{Config: moved, PatternName: j.PatternName, CPU: j.CPU, Rate: j.Rate,
				Warmup: j.Warmup, Measure: j.Measure, TelemetryEvery: e}); got.Key != want {
				t.Fatalf("%s re-configured key %s, want %s", j.PatternName, got.Key, want)
			}
			prof := j.withProfile(e)
			if want := refHex(fmt.Sprintf("%s|profile%d", j.Key, e)); prof.Key != want || prof.Label != j.Label+"/profile" {
				t.Fatalf("%s profile job %s %q, want %s %q", j.PatternName, prof.Key, prof.Label, want, j.Label+"/profile")
			}
		}

		// Labels, and keys as expand builds them, wherever the rate is
		// a valid axis value. Every config hash expand reuses is checked:
		// two meshes, a second rate and the mix share each config with
		// the pattern at the rate, within a mode and across its 1-2 slot
		// tables (non-TDM modes collapse the slot axis).
		other := 0.75
		if rate > 0.5 {
			other = 0.25
		}
		spec := Spec{Modes: []string{"packet", "tdm"}, Patterns: []string{pat.String(), "mix:EQUAKE+LPS"},
			Meshes: []MeshSize{{6, 6}, {8, 8}}, Rates: []float64{rate, other},
			SlotTables: []int{64, 128}[:1+int(flags>>6&1)], Seeds: []uint64{seed, seed ^ 1},
			WarmupCycles: warmup & 0xffff, MeasureCycles: 1 + measure&0xffff}
		if flags&0x80 != 0 {
			spec.TelemetryEvery = 1 + int(every)
		} else { // sdm runs neither mixes nor telemetry
			spec.Modes, spec.Patterns = append(spec.Modes, "sdm"), spec.Patterns[:1]
		}
		jobs, err := spec.Expand()
		if !(rate > 0 && rate <= 1) {
			if err == nil {
				t.Fatalf("rate %v expanded", rate)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if want := refLabel(j, len(spec.SlotTables)); j.Label != want {
				t.Fatalf("label %q, want %q", j.Label, want)
			}
			if want := refKey(j); j.Key != want {
				t.Fatalf("%s: key %s, want %s", j.Label, j.Key, want)
			}
		}
	})
}

// TestModelVersionChangesEveryKey: a non-zero model version moves the
// key of every kind of job; version 0 is the key jobs carry today.
func TestModelVersionChangesEveryKey(t *testing.T) {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridTDM
	syn := NewJob(cfg, hsnoc.Tornado, 0.15, 8000, 40000, "syn")
	for name, j := range map[string]Job{
		"synthetic": syn,
		"mix":       NewMixJob(cfg, "EQUAKE", "LPS", 2000, 8000, "mix"),
		"telemetry": telemetryJob(syn, 64),
	} {
		if j.key(0) != j.Key {
			t.Errorf("%s: version 0 keys %s, the job carries %s", name, j.key(0), j.Key)
		}
		if j.key(1) == j.Key {
			t.Errorf("%s: version 1 keeps key %s", name, j.Key)
		}
	}
	bumped := syn
	bumped.Key = syn.key(1)
	if bumped.withProfile(512).Key == syn.withProfile(512).Key {
		t.Error("profile: version 1 keeps the wave-1 key")
	}
}

// TestRatesSharingAKeyRefused: two distinct rates whose %.9g spellings
// are equal would be two simulations under one key and one label, so
// Normalize refuses them, naming both. A rate listed twice is still one
// grid point run twice under one key, and rates nine digits apart key
// apart.
func TestRatesSharingAKeyRefused(t *testing.T) {
	for _, rates := range [][]float64{{0.1, 0.1000000001}, {0.1000000001, 0.2, 0.1}} {
		s := Spec{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: rates}
		err := s.Normalize()
		if err == nil || !strings.Contains(err.Error(), "0.1 ") || !strings.Contains(err.Error(), "0.1000000001") {
			t.Errorf("rates %v: Normalize = %v, want a refusal naming 0.1 and 0.1000000001", rates, err)
		}
	}
	for rates, sameKey := range map[[2]float64]bool{{0.1, 0.1}: true, {0.1, 0.100000001}: false} {
		jobs, err := Spec{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: rates[:]}.Expand()
		if err != nil || len(jobs) != 2 {
			t.Fatalf("rates %v: %d jobs, %v", rates, len(jobs), err)
		}
		if (jobs[0].Key == jobs[1].Key) != sameKey {
			t.Errorf("rates %v: keys %s and %s, want equal = %v", rates, jobs[0].Key, jobs[1].Key, sameKey)
		}
	}
}

// ctrlGrid is the benchmark's ctrl_plane grid at 15 s: 27 points x 270
// seeds = 7 290 jobs.
func ctrlGrid() Spec {
	s := Spec{Modes: []string{"packet", "tdm", "sdm"}, Patterns: []string{"ur", "tornado", "transpose"},
		Rates: []float64{0.05, 0.10, 0.15}, WarmupCycles: 2000, MeasureCycles: 8000}
	for i := range 270 {
		s.Seeds = append(s.Seeds, 100_001+uint64(i))
	}
	return s
}

// TestExpandAllocsPerJob: a job costs its key and its label and nothing
// else; the per-call tables (the job slice, the config-hash memo) stay
// under 0.01 per job. A count, not a timing, so it holds on any host.
func TestExpandAllocsPerJob(t *testing.T) {
	spec := ctrlGrid()
	n := spec.Jobs()
	per := testing.AllocsPerRun(2, func() {
		if jobs, err := spec.Expand(); err != nil || len(jobs) != n {
			t.Fatalf("Expand: %d jobs, %v", len(jobs), err)
		}
	}) / float64(n)
	if per > 2.01 {
		t.Errorf("Expand allocates %.3f times per job, want at most 2.01", per)
	}
	t.Logf("Expand of %d jobs: %.3f allocations per job", n, per)
}

func BenchmarkSpecExpand(b *testing.B) {
	spec := ctrlGrid()
	n := spec.Jobs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if jobs, err := spec.Expand(); err != nil || len(jobs) != n {
			b.Fatalf("Expand: %d jobs, %v", len(jobs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
}

// BenchmarkShardJobs: one lease's derivation, the middle 16-job shard
// of the same grid, in ns/job.
func BenchmarkShardJobs(b *testing.B) {
	spec := ctrlGrid()
	mid := spec.NumShards(16) / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if jobs, err := spec.ShardJobs(mid, 16); err != nil || len(jobs) != 16 {
			b.Fatalf("ShardJobs(%d, 16): %d jobs, %v", mid, len(jobs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16), "ns/job")
}

// TestRecordCodecAllocs: encoding into a reused buffer allocates
// nothing, and decoding a canonical synthetic record allocates only its
// strings (key, label, mode, pattern). Counts, not timings.
func TestRecordCodecAllocs(t *testing.T) {
	r := sampleRecord()
	buf, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte(nil), buf...)
	if n := testing.AllocsPerRun(100, func() { buf, _ = r.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a reused buffer allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(line); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("DecodeRecord allocates %.1f times, want at most 5 (its strings)", n)
	}
}

// BenchmarkRecordCodec: one synthetic record each way, by hand and
// through encoding/json, in ns/record.
func BenchmarkRecordCodec(b *testing.B) {
	r := sampleRecord()
	line, err := r.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fn   func() error
	}{
		{"encode", func() (err error) { line, err = r.AppendJSON(line[:0]); return err }},
		{"decode", func() error { _, err := DecodeRecord(line); return err }},
		{"encode-json", func() error { _, err := json.Marshal(r); return err }},
		{"decode-json", func() error { var r Record; return json.Unmarshal(line, &r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.fn(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
		})
	}
}
