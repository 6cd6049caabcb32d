package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
	"tdmnoc/scenarios"
)

// testSpec is a small 3-axis grid (2 modes x 2 rates x 2 seeds x
// 1 pattern = 8 jobs) sized so the full campaign runs in well under a
// second.
func testSpec() Spec {
	return Spec{
		Name:          "test",
		Modes:         []string{"packet", "tdm"},
		Patterns:      []string{"tornado"},
		Meshes:        []MeshSize{{4, 4}},
		Rates:         []float64{0.05, 0.10},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  200,
		MeasureCycles: 600,
	}
}

func TestSpecExpand(t *testing.T) {
	s := testSpec()
	jobs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(jobs) != 8 {
		t.Fatalf("expanded %d jobs, want 8", len(jobs))
	}
	if got := s.Jobs(); got != len(jobs) {
		t.Errorf("Jobs() = %d, want %d", got, len(jobs))
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if keys[j.Key] {
			t.Errorf("duplicate job key %s", j.Key)
		}
		keys[j.Key] = true
		if j.Config.Width != 4 || j.Config.Height != 4 {
			t.Errorf("job mesh %dx%d, want 4x4", j.Config.Width, j.Config.Height)
		}
	}
	// Expansion must be deterministic: same spec, same order, same keys.
	jobs2, _ := s.Expand()
	for i := range jobs {
		if jobs[i].Key != jobs2[i].Key {
			t.Fatalf("expansion order not deterministic at %d", i)
		}
	}
}

func TestSpecSlotAxisCollapsesForNonTDM(t *testing.T) {
	s := testSpec()
	s.Modes = []string{"packet", "tdm"}
	s.SlotTables = []int{64, 128}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// packet: 1 slot point x 2 rates x 2 seeds = 4; tdm: 2 x 2 x 2 = 8.
	if len(jobs) != 12 {
		t.Fatalf("expanded %d jobs, want 12 (slot axis must collapse for packet mode)", len(jobs))
	}
	// Two slot-table points are two jobs per (rate, seed), and labels
	// tell them apart; one point keeps the label without a slot tag.
	labels := map[string]bool{}
	for _, j := range jobs {
		if labels[j.Label] {
			t.Errorf("duplicate label %s", j.Label)
		}
		labels[j.Label] = true
	}
	for _, want := range []string{"Packet-VC4/TOR/4x4/r0.050/seed1", "Hybrid-TDM/TOR/4x4/s64/r0.050/seed1", "Hybrid-TDM/TOR/4x4/s128/r0.100/seed2"} {
		if !labels[want] {
			t.Errorf("no job labelled %s", want)
		}
	}
	one, _ := testSpec().Expand()
	if got := one[4].Label; got != "Hybrid-TDM/TOR/4x4/r0.050/seed1" {
		t.Errorf("single slot point labelled %s", got)
	}
}

// TestSpecRateAxisCollapsesForMix is the same rule for the other
// workload kind: a mix generates its own load, so the rates axis gives
// it one point, and a mix-only spec needs no rates at all.
func TestSpecRateAxisCollapsesForMix(t *testing.T) {
	s := testSpec()
	s.Meshes = []MeshSize{{6, 6}}
	s.Patterns = []string{"tornado", "mix:EQUAKE+LPS"}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Per mode: tornado 2 rates x 2 seeds = 4, the mix 1 x 2 = 2.
	if len(jobs) != 12 || s.Jobs() != 12 {
		t.Fatalf("expanded %d jobs (Jobs() = %d), want 12 (rate axis must collapse for a mix)", len(jobs), s.Jobs())
	}
	mix := jobs[4]
	if mix.CPU != "EQUAKE" || mix.GPU != "LPS" || mix.PatternName != "mix:EQUAKE+LPS" || mix.Rate != 0 {
		t.Errorf("mix job = %+v", mix)
	}
	if rec := newRecord(mix); rec.Pattern != "mix:EQUAKE+LPS" || rec.Label != "Packet-VC4/mix:EQUAKE+LPS/6x6/seed1" {
		t.Errorf("mix record identity = %+v", rec)
	}

	only := Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:ART+STO", "mix:SWIM+NN"}}
	if err := only.Normalize(); err != nil || only.Jobs() != 2 {
		t.Fatalf("mix-only spec without rates: Normalize = %v, Jobs = %d, want nil and 2", err, only.Jobs())
	}
	// Rates a mix-only spec does list change neither grid nor keys.
	rated := only
	rated.Rates = []float64{0.1, 0.2}
	a, _ := only.Expand()
	b, _ := rated.Expand()
	if len(a) != 2 || len(b) != 2 || a[0].Key != b[0].Key || a[1].Key != b[1].Key {
		t.Errorf("rates moved a mix-only grid: %d vs %d jobs", len(a), len(b))
	}
}

// TestJobKeysAndSpecHashPinned freezes the cache-key and store-naming
// formats: the literals were printed by the commit before jobs gained a
// second workload kind, so a stored synthetic record stays addressable
// and a resubmitted spec finds its old store.
func TestJobKeysAndSpecHashPinned(t *testing.T) {
	tdm := hsnoc.DefaultConfig(4, 4)
	tdm.Mode, tdm.Seed, tdm.PathSharing = hsnoc.HybridTDM, 2, true
	sdm := hsnoc.DefaultConfig(6, 6)
	sdm.Mode = hsnoc.HybridSDM
	for _, c := range []struct{ name, got, want string }{
		{"packet/tornado", NewJob(hsnoc.DefaultConfig(6, 6), hsnoc.Tornado, 0.15, 8000, 40000, "a").Key,
			"b5d9e621a5b0f4194a0b74d4acc9550b28c1b69a077383f43952d756322f28a2"},
		{"tdm/ur+telemetry", telemetryJob(NewJob(tdm, hsnoc.UniformRandom, 0.05, 200, 600, "b"), 64).Key,
			"b82fc18f47bcadd80a7be3aeb05d8e28649a8283cdefed87c2255af9dd4cddf9"},
		{"sdm/transpose", NewJob(sdm, hsnoc.Transpose, 0.3, 2000, 8000, "c").Key,
			"8bd9713946b4a894d033115495b00eac86bfc483f32faafe4dce3ff0a5609f5a"},
		{"testSpec hash", testSpec().Hash(),
			"3d30b497674adaa4bd65788114b04e9bca7a600bc95942e6999977061c7fa5ac"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	// A mix key hashes cfg|mix:<CPU>+<GPU>|warmup|measure and moves with
	// each of them.
	cfg := hsnoc.DefaultConfig(6, 6)
	base := NewMixJob(cfg, "EQUAKE", "LPS", 2000, 8000, "m")
	seeded := cfg
	seeded.Seed = 2
	for name, other := range map[string]Job{
		"gpu":     NewMixJob(cfg, "EQUAKE", "NN", 2000, 8000, "m"),
		"cpu":     NewMixJob(cfg, "ART", "LPS", 2000, 8000, "m"),
		"measure": NewMixJob(cfg, "EQUAKE", "LPS", 2000, 8001, "m"),
		"config":  NewMixJob(seeded, "EQUAKE", "LPS", 2000, 8000, "m"),
	} {
		if other.Key == base.Key {
			t.Errorf("mix key ignores the %s", name)
		}
	}
	if relabelled := NewMixJob(cfg, "EQUAKE", "LPS", 2000, 8000, "other"); relabelled.Key != base.Key {
		t.Error("mix key depends on the label")
	}
}

func TestSpecRehydrate(t *testing.T) {
	s := testSpec()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	hash := s.Hash()

	// A marshal/unmarshal round trip (what a journal or checkpoint does)
	// rehydrates to the same normalized spec and passes the hash check.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Rehydrate(hash)
	if err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	if got.Hash() != hash {
		t.Fatalf("rehydrated hash %s != %s", got.Hash(), hash)
	}

	// A wrong recorded hash — the persisted-under-different-semantics
	// case — fails loudly.
	if _, err := back.Rehydrate("deadbeef"); err == nil {
		t.Fatal("Rehydrate accepted a mismatched hash")
	}

	// An empty hash skips the check but still normalizes/validates.
	if _, err := back.Rehydrate(""); err != nil {
		t.Fatalf("Rehydrate with empty hash: %v", err)
	}
	if _, err := (Spec{}).Rehydrate(""); err == nil {
		t.Fatal("Rehydrate normalized an invalid spec")
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{Patterns: []string{"ur"}, Rates: []float64{0.1}},                            // no modes
		{Modes: []string{"tdm"}, Rates: []float64{0.1}},                              // no patterns
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}},                           // no rates
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0}},      // zero rate
		{Modes: []string{"warp"}, Patterns: []string{"ur"}, Rates: []float64{0.1}},   // bad mode
		{Modes: []string{"tdm"}, Patterns: []string{"zigzag"}, Rates: []float64{.1}}, // bad pattern
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0.1}, Meshes: []MeshSize{{0, 6}}},
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0.1}, SlotTables: []int{-1}},
		// The SDM engine has no invariant layer to check.
		{Modes: []string{"tdm", "sdm"}, Patterns: []string{"ur"}, Rates: []float64{0.1}, CheckInvariants: true},
		{Modes: []string{"tdm"}, Patterns: []string{"mix:QUAKE+LPS"}},                                       // unknown CPU benchmark
		{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LSP"}},                                      // unknown GPU kernel
		{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE"}},                                          // malformed: no +<GPU>
		{Modes: []string{"tdm"}, Patterns: []string{"mix:equake+lps"}},                                      // names are exact, no aliases
		{Modes: []string{"tdm", "sdm"}, Patterns: []string{"mix:EQUAKE+LPS"}},                               // sdm has no tile endpoints
		{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LPS"}, Meshes: []MeshSize{{2, 2}}},          // no room for the layout
		{Modes: []string{"tdm"}, Patterns: []string{"ur", "mix:EQUAKE+LPS"}},                                // ur still needs a rate
		{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LPS"}, Rates: []float64{0.1, 2}},            // listed rates are still checked
		{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LPS"}, Seeds: repeat(uint64(1), MaxJobs+1)}, // the cap counts mixes
		// 1025 x 1025 jobs: just past MaxJobs.
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: repeat(0.1, 1025), Seeds: repeat(uint64(1), 1025)},
		// Five axes of 8192: the product (2^65) wraps a 64-bit int to 0.
		{Modes: []string{"tdm"}, Patterns: repeat("ur", 8192), Meshes: repeat(MeshSize{4, 4}, 8192),
			SlotTables: repeat(128, 8192), Rates: repeat(0.1, 8192), Seeds: repeat(uint64(1), 8192)},
		// The variants axis: one configuration axis, named, one name each.
		{Modes: []string{"tdm"}, Variants: []Variant{{Name: "a", Mode: "tdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}},
		{Variants: []Variant{{Mode: "tdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}},
		{Variants: []Variant{{Name: "a", Mode: "tdm"}, {Name: "a", Mode: "packet"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}},
		{Variants: []Variant{{Name: "a/b", Mode: "tdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}},
		{Variants: []Variant{{Name: "a", Mode: "warp"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}},
		{Variants: []Variant{{Name: "a", Mode: "tdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}, PathSharing: true}, // switches are per variant
		{Variants: []Variant{{Name: "a", Mode: "tdm"}, {Name: "b", Mode: "sdm"}}, Patterns: []string{"mix:EQUAKE+LPS"}},
		{Variants: []Variant{{Name: "a", Mode: "sdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}, TelemetryEvery: 64},
		{Variants: []Variant{{Name: "a", Mode: "sdm"}}, Patterns: []string{"ur"}, Rates: []float64{0.1}, CheckInvariants: true},
		{Variants: []Variant{{Name: "a", Mode: "tdm"}, {Name: "b", Mode: "packet"}}, Patterns: []string{"ur"}, Rates: []float64{0.1},
			PolicyProfile: &PolicyProfileSpec{Policies: []string{"static"}}},
		// An sdm-gate re-run runs on the SDM engine, which has no
		// invariant layer: refused rather than run unchecked.
		{Modes: []string{"tdm"}, Patterns: []string{"tornado"}, Rates: []float64{0.1}, CheckInvariants: true,
			PolicyProfile: &PolicyProfileSpec{Policies: []string{"greedy", "sdm-gate"}}},
	}
	// Values that size one job's memory: a job past them would OOM-kill
	// the worker that leases it. Only Normalize runs here; nothing of
	// that size is ever built.
	ur := func(s Spec) Spec {
		s.Modes, s.Patterns, s.Rates = []string{"tdm"}, []string{"ur"}, []float64{0.1}
		return s
	}
	bounds := []struct {
		spec  Spec
		field string
	}{
		{ur(Spec{Meshes: []MeshSize{{3000, 3000}}}), "meshes"},
		{ur(Spec{Meshes: []MeshSize{{65, 64}}}), "meshes"},
		{ur(Spec{Meshes: []MeshSize{{8192, 1}}}), "meshes"},
		{ur(Spec{Meshes: []MeshSize{{1 << 32, 1 << 32}}}), "meshes"}, // the product wraps to 0
		{ur(Spec{SlotTables: []int{1025}}), "slot_tables"},
		{ur(Spec{SlotTables: []int{128, 1 << 40}}), "slot_tables"},
		{ur(Spec{SimWorkers: 65}), "sim_workers"},
		{ur(Spec{SimWorkers: -1}), "sim_workers"},
	}
	for _, b := range bounds {
		bad = append(bad, b.spec)
		if err := b.spec.Normalize(); err == nil || !strings.Contains(err.Error(), b.field) {
			t.Errorf("%+v: Normalize = %v, want an error naming %s", b.spec, err, b.field)
		}
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d normalized without error", i)
		}
		if n := s.Jobs(); n != 0 {
			t.Errorf("spec %d: Jobs() = %d for an invalid spec, want 0", i, n)
		}
	}
	// The cap itself is admissible; the slot axis only multiplies tdm.
	atCap := Spec{Modes: []string{"packet", "tdm"}, Patterns: []string{"ur"}, SlotTables: []int{64, 128, 256},
		Rates: repeat(0.1, 512), Seeds: repeat(uint64(1), 512)}
	if err := atCap.Normalize(); err != nil || atCap.Jobs() != 4*512*512 || atCap.Jobs() != MaxJobs {
		t.Errorf("grid of exactly MaxJobs: Normalize = %v, Jobs = %d, want nil and %d", err, atCap.Jobs(), MaxJobs)
	}
	// So are the bounds themselves.
	atBounds := ur(Spec{Meshes: []MeshSize{{64, 64}, {4096, 1}}, SlotTables: []int{1024}, SimWorkers: 64})
	if err := atBounds.Normalize(); err != nil {
		t.Errorf("spec at the bounds: Normalize = %v", err)
	}
}

// TestSpecVariantsAxis: a modes spec is the variants spec its lowering
// names — same jobs, keys and labels — and a variant's switches and
// name reach its jobs.
func TestSpecVariantsAxis(t *testing.T) {
	lowered := testSpec()
	lowered.Modes = nil
	lowered.Variants = []Variant{{Name: "Packet-VC4", Mode: "packet"}, {Name: "Hybrid-TDM", Mode: "tdm"}}
	a, errA := testSpec().Expand()
	b, errB := lowered.Expand()
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("modes and their lowering expand differently (%v, %v)", errA, errB)
	}

	s := testSpec()
	s.Modes = nil
	s.Variants = []Variant{{Name: "plain", Mode: "tdm"}, {Name: "full", Mode: "tdm", PathSharing: true, VCPowerGating: true,
		LatencyBasedVCGating: true, DisableTimeSlotStealing: true, DisableDynamicSlotSizing: true, SAIterations: 2}}
	jobs, err := s.Expand()
	if err != nil || len(jobs) != 8 || s.Jobs() != 8 {
		t.Fatalf("Expand = %d jobs, %v; Jobs() = %d; want 8", len(jobs), err, s.Jobs())
	}
	// Variant-major: plain's four jobs, then full's.
	if jobs[0].Label != "plain/TOR/4x4/r0.050/seed1" || jobs[4].Label != "full/TOR/4x4/r0.050/seed1" {
		t.Errorf("labels %s, %s", jobs[0].Label, jobs[4].Label)
	}
	want := hsnoc.DefaultConfig(4, 4)
	want.Mode, want.PathSharing, want.VCPowerGating, want.LatencyBasedVCGating = hsnoc.HybridTDM, true, true, true
	want.DisableTimeSlotStealing, want.DisableDynamicSlotSizing, want.SAIterations = true, true, 2
	if !reflect.DeepEqual(jobs[4].Config, want) {
		t.Errorf("full variant's config %+v, want %+v", jobs[4].Config, want)
	}
}

// TestSpecMethodsLeaveTheCallerSpecAlone: Hash, Jobs, Rehydrate and the
// expansions normalize a copy, and the copy shares the policy profile
// and the variants with the caller's spec — none of them may write
// through either.
func TestSpecMethodsLeaveTheCallerSpecAlone(t *testing.T) {
	build := func() Spec {
		s := testSpec()
		s.Modes = nil
		s.Variants = []Variant{{Name: "a", Mode: "tdm"}, {Name: "b", Mode: "tdm", VCPowerGating: true}}
		s.PolicyProfile = &PolicyProfileSpec{Policies: []string{"greedy"}}
		return s
	}
	s := build()
	s.Hash()
	s.Jobs()
	s.NumShards(3)
	if _, err := s.Rehydrate(""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Expand(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShardJobs(1, 3); err != nil {
		t.Fatal(err)
	}
	if want := build(); !reflect.DeepEqual(s, want) {
		t.Errorf("the caller's spec changed: policy profile %+v, variants %+v; want %+v, %+v",
			*s.PolicyProfile, s.Variants, *want.PolicyProfile, want.Variants)
	}
}

// repeat builds an n-long axis of one value (axes may repeat values; a
// hostile spec certainly can).
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"typo_field":1}`))
	if err == nil {
		t.Fatal("spec with unknown field accepted")
	}
}

// readStoreLines reads a JSONL store file into sorted lines.
func readStoreLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	sort.Strings(lines)
	return lines
}

// TestCampaignDeterminism is the headline guarantee: the same spec run
// with one worker and with eight workers produces byte-identical JSONL
// records (modulo ordering).
func TestCampaignDeterminism(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	paths := [2]string{filepath.Join(dir, "serial.jsonl"), filepath.Join(dir, "parallel.jsonl")}
	for i, workers := range []int{1, 8} {
		store, err := OpenStore(paths[i])
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		eng := New(Options{Workers: workers, Store: store})
		recs := eng.Run(context.Background(), jobs)
		store.Close()
		for _, r := range recs {
			if r.Err != "" {
				t.Fatalf("workers=%d: job %s failed: %s", workers, r.Label, r.Err)
			}
			if r.Result.Packets == 0 {
				t.Fatalf("workers=%d: job %s delivered no packets", workers, r.Label)
			}
		}
	}
	serial, parallel := readStoreLines(t, paths[0]), readStoreLines(t, paths[1])
	if len(serial) != len(parallel) || len(serial) != len(jobs) {
		t.Fatalf("line counts: serial %d, parallel %d, jobs %d", len(serial), len(parallel), len(jobs))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("record %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestCampaignResume interrupts a campaign after half its jobs and
// checks that re-running the full spec serves the finished half from
// the persisted store without recomputing.
func TestCampaignResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	// First run: only half the jobs "complete" before the interrupt.
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	half := jobs[:len(jobs)/2]
	eng := New(Options{Workers: 2, Store: store})
	for _, r := range eng.Run(context.Background(), half) {
		if r.Err != "" {
			t.Fatalf("first run: %s: %s", r.Label, r.Err)
		}
	}
	store.Close() // simulate the process dying

	// Resumed run over the full spec.
	store2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store2.Close()
	if store2.Len() != len(half) {
		t.Fatalf("reloaded %d records, want %d", store2.Len(), len(half))
	}
	eng2 := New(Options{Workers: 2, Store: store2})
	recs := eng2.Run(context.Background(), jobs)
	st := eng2.Status()
	if st.CacheHits != int64(len(half)) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, len(half))
	}
	if st.Done != int64(len(jobs)) {
		t.Errorf("done = %d, want %d", st.Done, len(jobs))
	}
	// Expected simulated cycles: only the second half ran.
	wantCycles := int64(0)
	for _, j := range jobs[len(jobs)/2:] {
		wantCycles += int64(j.Warmup + j.Measure)
	}
	if st.CyclesSimulated != wantCycles {
		t.Errorf("cycles simulated = %d, want %d", st.CyclesSimulated, wantCycles)
	}
	for i, r := range recs {
		if r.Err != "" {
			t.Errorf("resumed job %s failed: %s", r.Label, r.Err)
		}
		if i < len(half) && !r.Cached {
			t.Errorf("job %d should have been served from cache", i)
		}
	}

	// A third run must be 100% cache hits.
	eng3 := New(Options{Workers: 2, Store: store2})
	eng3.Run(context.Background(), jobs)
	if st := eng3.Status(); st.CacheHits != int64(len(jobs)) || st.CyclesSimulated != 0 {
		t.Errorf("full re-run: cache hits %d (want %d), cycles %d (want 0)",
			st.CacheHits, len(jobs), st.CyclesSimulated)
	}
}

// TestEngineDedupsWithinRun checks that duplicate keys inside one job
// list simulate once.
func TestEngineDedupsWithinRun(t *testing.T) {
	var runs atomic.Int64
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		runs.Add(1)
		return stats.RunRecord{Runs: 1, Cycles: int64(j.Measure), Packets: 1}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 100, 200, "dup")
	eng := New(Options{Workers: 4, Runner: runner})
	recs := eng.Run(context.Background(), []Job{j, j, j})
	if runs.Load() != 1 {
		t.Errorf("runner invoked %d times, want 1", runs.Load())
	}
	for i, r := range recs {
		if r.Err != "" || r.Result.Packets != 1 {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	if st := eng.Status(); st.Done != 3 || st.CacheHits != 2 {
		t.Errorf("status = %+v, want done 3 / cache hits 2", st)
	}
}

// TestEngineTimeoutAndCancel checks campaign-level cancellation: a job
// whose context ends fails instead of reporting success. (A per-job
// time limit is the fleet worker's, WorkerOptions.JobTimeout.)
func TestEngineTimeoutAndCancel(t *testing.T) {
	block := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		<-ctx.Done()
		return stats.RunRecord{}, nil, ctx.Err()
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "block")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Workers: 1, Runner: block})
	recs := eng.Run(ctx, []Job{j})
	if recs[0].Err == "" {
		t.Error("cancelled job reported success")
	}
}

// TestEnginePanicRecovery checks that a panicking job becomes a failed
// record instead of crashing the campaign.
func TestEnginePanicRecovery(t *testing.T) {
	boom := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		panic("simulated router invariant violation")
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	jobs := []Job{
		NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "boom"),
	}
	eng := New(Options{Workers: 2, Runner: boom})
	recs := eng.Run(context.Background(), jobs)
	if !strings.Contains(recs[0].Err, "panic") {
		t.Errorf("panic not captured: %+v", recs[0])
	}
	if st := eng.Status(); st.Failed != 1 {
		t.Errorf("status = %+v", st)
	}
}

// TestStoreSkipsTornLine checks crash tolerance of the JSONL reload.
func TestStoreSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	good := `{"key":"k1","mode":"Packet-VC4","pattern":"TOR","width":4,"height":4,"rate":0.1,"seed":1,"warmup":1,"measure":2,"result":{"runs":1,"cycles":2,"packets":3,"net_latency_sum":0,"total_latency_sum":0,"flit_cycles":0,"payload_cycles":0,"cs_frac_packets":0,"config_frac_packets":0,"energy_pj":1}}`
	if err := os.WriteFile(path, []byte(good+"\n"+`{"key":"k2","resu`), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	if store.Len() != 1 {
		t.Errorf("loaded %d records from torn store, want 1", store.Len())
	}
	if _, ok := store.Lookup("k1"); !ok {
		t.Error("intact record lost")
	}
}

// TestStoreLoadsOversizedRecord guards the ReadBytes-based reload: a
// record far larger than bufio.Scanner's old 4 MiB line cap must
// survive a close/reopen cycle instead of failing the whole store.
func TestStoreLoadsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	big := Record{
		Key:   "huge",
		Label: strings.Repeat("x", 5<<20), // > 4 MiB on one JSONL line
		Result: stats.RunRecord{
			Runs: 1, Cycles: 10, Packets: 1, EnergyPJ: 1,
		},
	}
	if err := store.Append(big); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := store.Append(Record{Key: "after", Result: stats.RunRecord{Runs: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	store.Close()

	re, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got, ok := re.Lookup("huge")
	if !ok || len(got.Label) != 5<<20 {
		t.Fatalf("oversized record not reloaded (found=%v, label %d bytes)", ok, len(got.Label))
	}
	if _, ok := re.Lookup("after"); !ok {
		t.Error("record after the oversized one lost")
	}
}

// TestStoreRejectsMidFileCorruption: an unparseable line that is NOT
// the torn tail of the file is real corruption and must fail the open
// loudly instead of silently dropping records.
func TestStoreRejectsMidFileCorruption(t *testing.T) {
	good := `{"key":"k1","result":{"runs":1,"cycles":2,"packets":3,"net_latency_sum":0,"total_latency_sum":0,"flit_cycles":0,"payload_cycles":0,"cs_frac_packets":0,"config_frac_packets":0,"energy_pj":1}}`
	for name, content := range map[string]string{
		"corrupt middle":        good + "\n" + `{"key":"k2","resu` + "\n" + good,
		"corrupt last complete": good + "\n" + `{"key":"k2","resu` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "corrupt.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenStore(path)
		if err == nil {
			store.Close()
			t.Errorf("%s: OpenStore accepted a corrupt store", name)
		}
	}
}

// TestCheckedCampaignRunsClean runs a real (small) simulation job with
// the invariant layer on: it must complete without violations and the
// engine counter must stay zero.
func TestCheckedCampaignRunsClean(t *testing.T) {
	s := Spec{
		Modes: []string{"tdm"}, Patterns: []string{"tornado"},
		Meshes: []MeshSize{{4, 4}}, Rates: []float64{0.1}, Seeds: []uint64{1},
		WarmupCycles: 200, MeasureCycles: 400,
		CheckInvariants: true,
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Config.CheckInvariants {
		t.Fatal("spec did not propagate CheckInvariants to the job config")
	}
	eng := New(Options{Workers: 1})
	recs := eng.Run(context.Background(), jobs)
	if recs[0].Err != "" {
		t.Fatalf("checked job failed: %s", recs[0].Err)
	}
	if st := eng.Status(); st.Violations != 0 {
		t.Fatalf("clean run counted %d violations", st.Violations)
	}
}

// TestEngineCountsViolations: a job failing with *hsnoc.ViolationError
// must feed the engine's violation counter (and /metrics).
func TestEngineCountsViolations(t *testing.T) {
	bad := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		return stats.RunRecord{}, nil, &hsnoc.ViolationError{Count: 5, Violations: []hsnoc.Violation{
			{Cycle: 3, Router: 1, Kind: "credit", Detail: "seeded"},
		}}
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	eng := New(Options{Workers: 1, Runner: bad})
	recs := eng.Run(context.Background(), []Job{NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "bad")})
	if recs[0].Err == "" || !strings.Contains(recs[0].Err, "invariant violation") {
		t.Errorf("violation not reported in record: %+v", recs[0])
	}
	if st := eng.Status(); st.Violations != 5 || st.Failed != 1 {
		t.Errorf("status = %+v, want 5 violations / 1 failed", st)
	}
}

// explodingTicker panics inside the executor worker pool.
type explodingTicker struct{}

func (explodingTicker) Tick(now sim.Cycle, phase sim.Phase) {
	if now == 2 && phase == sim.PhaseCompute {
		panic("ticker exploded")
	}
}

// TestEngineContainsExecutorWorkerPanic glues the two containment
// layers end to end: a Ticker panic on a pooled executor goroutine is
// re-raised on the job goroutine, where the engine's recover turns it
// into one failed record — the other job and the process survive.
func TestEngineContainsExecutorWorkerPanic(t *testing.T) {
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		if j.Label == "boom" {
			clock := &sim.Clock{}
			ts := []sim.Ticker{explodingTicker{}, explodingTicker{}, explodingTicker{}, explodingTicker{}}
			e := sim.NewExecutor(clock, ts, 4)
			defer e.Close()
			e.Run(10)
		}
		return stats.RunRecord{Runs: 1, Packets: 1}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	jobs := []Job{
		NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "boom"),
		NewJob(cfg, hsnoc.Tornado, 0.2, 0, 100, "fine"),
	}
	eng := New(Options{Workers: 2, Runner: runner})
	recs := eng.Run(context.Background(), jobs)
	if !strings.Contains(recs[0].Err, "panic") {
		t.Errorf("worker panic not contained to its job: %+v", recs[0])
	}
	if recs[1].Err != "" {
		t.Errorf("healthy job dragged down: %+v", recs[1])
	}
	if st := eng.Status(); st.Failed != 1 || st.Done != 1 {
		t.Errorf("status = %+v, want 1 failed / 1 done", st)
	}
}

func TestAggregateMergesSeeds(t *testing.T) {
	mk := func(seed uint64, packets int64) Record {
		return Record{
			Key: fmt.Sprintf("k%d", seed), Mode: "Hybrid-TDM", Pattern: "TOR",
			Width: 4, Height: 4, Rate: 0.1, Seed: seed,
			Result: stats.RunRecord{Runs: 1, Cycles: 100, Packets: packets, EnergyPJ: 10},
		}
	}
	recs := []Record{mk(1, 10), mk(2, 30), {Key: "bad", Err: "boom"}}
	agg := Aggregate(recs, GroupWithoutSeed)
	if len(agg) != 1 {
		t.Fatalf("groups = %d, want 1", len(agg))
	}
	for _, r := range agg {
		if r.Runs != 2 || r.Packets != 40 || r.EnergyPJ != 20 {
			t.Errorf("aggregate = %+v", r)
		}
	}
}

// TestGroupWithoutSeedKeepsConfigurationsApart: /summary's groups fold
// seeds and nothing else. Fig. 5's tdm and vct variants are one mode at
// every grid point, and a policy study's profiling runs and re-runs are
// one config point, yet each is a group of its own; a modes spec keeps
// its mode/pattern/mesh/slots/rate keys, also for records that carry
// only a key, a label and a rate, as the fleet's fixtures fabricate.
func TestGroupWithoutSeedKeepsConfigurationsApart(t *testing.T) {
	fig5 := loadScenario(t, "fig5.json")
	fig5.Seeds = []uint64{1}
	jobs, err := fig5.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(jobs))
	for i, j := range jobs {
		recs[i] = newRecord(j)
	}
	if agg := Aggregate(recs, GroupWithoutSeed); len(agg) != len(jobs) {
		t.Errorf("fig5 at one seed: %d jobs fold into %d groups", len(jobs), len(agg))
	}

	study := policySpec()
	study.Seeds = []uint64{1, 2}
	grid := expandStudy(t, &study)
	recs = recs[:0]
	for _, j := range grid {
		rerun := j
		rerun.Label += "/policy=greedy"
		recs = append(recs, newRecord(j.withProfile(study.PolicyProfile.ProfileEvery)), newRecord(rerun))
	}
	for i := range recs {
		recs[i].Result.Runs = 1
	}
	want := map[string]int{
		"Hybrid-TDM/TOR/4x4/s128/r0.150/profile":       2,
		"Hybrid-TDM/TOR/4x4/s128/r0.150/policy=greedy": 2,
	}
	got := map[string]int{}
	for k, r := range Aggregate(recs, GroupWithoutSeed) {
		got[k] = int(r.Runs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("policy study groups (runs per key) = %v, want %v", got, want)
	}

	plain := Spec{Modes: []string{"packet", "tdm", "sdm"}, Patterns: []string{"ur", "tornado"},
		Meshes: []MeshSize{{4, 4}}, Rates: []float64{0.05, 0.125}, Seeds: []uint64{1, 7}}
	jobs, err = plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		r := newRecord(j)
		want := fmt.Sprintf("%s/%s/%dx%d/s%d/r%.3f", r.Mode, r.Pattern, r.Width, r.Height, r.Slots, r.Rate)
		if got := GroupWithoutSeed(r); got != want {
			t.Errorf("modes spec job %s groups as %q, want %q", j.Label, got, want)
		}
		if r.Label = ""; GroupWithoutSeed(r) != want {
			t.Errorf("unlabelled record of %s groups as %q, want %q", j.Label, GroupWithoutSeed(r), want)
		}
		stub := Record{Key: j.Key, Label: j.Label, Rate: j.Rate}
		if got, want := GroupWithoutSeed(stub), fmt.Sprintf("//0x0/s0/r%.3f", j.Rate); got != want {
			t.Errorf("label-only record of %s groups as %q, want %q", j.Label, got, want)
		}
	}
}

// loadScenario parses one of the scenarios/ specs.
func loadScenario(t *testing.T, name string) Spec {
	t.Helper()
	f, err := scenarios.FS.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmStoreKeepsGroups: a key's record is stored once, under the
// label of whichever campaign ran it first, yet a spec's /summary groups
// and bytes over a warm store are those of an empty one — through
// RunSpec's store hits and Resolve. Fig. 4 stores every key of Fig. 5
// under its own variant names; two modes specs store Fig. 8's two
// Hybrid-TDM variants under one mode label; Fig. 8 stores a modes
// spec's keys under a variant name. A duplicate key within one Run is
// served under its own label too.
func TestWarmStoreKeepsGroups(t *testing.T) {
	modes := func(mode string, sharing bool) Spec {
		s := loadScenario(t, "fig8.json")
		s.Name, s.Variants, s.Modes, s.PathSharing = "", nil, []string{mode}, sharing
		return s
	}
	for _, c := range []struct {
		name string
		warm []Spec
		spec Spec
		hits int64
	}{
		{"fig4 then fig5", []Spec{loadScenario(t, "fig4.json")}, loadScenario(t, "fig5.json"), 36},
		{"modes then fig8", []Spec{modes("tdm", false), modes("tdm", true)}, loadScenario(t, "fig8.json"), 112},
		{"fig8 then modes", []Spec{loadScenario(t, "fig8.json")}, modes("tdm", false), 56},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			grid := expandStudy(t, &c.spec)
			summary := func(recs []Record) string {
				b, err := json.Marshal(Aggregate(recs, GroupWithoutSeed))
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			want := summary(New(Options{Workers: 2, Runner: stubRunner}).RunSpec(ctx, c.spec, grid))

			store, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			for _, w := range c.warm {
				New(Options{Workers: 2, Runner: stubRunner, Store: store}).RunSpec(ctx, w, expandStudy(t, &w))
			}
			eng := New(Options{Workers: 2, Runner: stubRunner, Store: store})
			recs := eng.RunSpec(ctx, c.spec, grid)
			if hits := eng.Status().CacheHits; hits != c.hits {
				t.Fatalf("%d of %d jobs served from the warm store, want %d", hits, len(grid), c.hits)
			}
			if got := summary(recs); got != want {
				t.Errorf("RunSpec over a warm store:\n got  %s\n want %s", got, want)
			}
			if got := summary(c.spec.Resolve(grid, store.Lookup)); got != want {
				t.Errorf("Resolve over a warm store:\n got  %s\n want %s", got, want)
			}
		})
	}

	jobs, err := policySpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	dup := jobs[0]
	dup.Label = "Other/" + dup.Label
	recs := New(Options{Workers: 1, Runner: stubRunner}).Run(context.Background(), []Job{jobs[0], dup})
	if recs[0].Label != jobs[0].Label || recs[1].Label != dup.Label || !recs[1].Cached {
		t.Errorf("duplicate key served as %q (cached %v), %q; want %q, then %q cached",
			recs[0].Label, recs[1].Cached, recs[1].Label, jobs[0].Label, dup.Label)
	}
}

// TestRecordStableEncoding pins the persisted encoding: Cached must
// never leak into JSON, and a marshal/unmarshal round trip must be
// exact.
func TestRecordStableEncoding(t *testing.T) {
	cfg := hsnoc.DefaultConfig(4, 4)
	cfg.Mode = hsnoc.HybridTDM
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 10, 20, "enc")
	r := newRecord(j)
	r.Result = stats.RunRecord{Runs: 1, Cycles: 20, Packets: 5, EnergyPJ: 123.456}
	r.Cached = true
	b1, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(b1, []byte("Cached")) || bytes.Contains(b1, []byte("cached")) {
		t.Error("runtime-only Cached field leaked into the persisted encoding")
	}
	var back Record
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back.Cached = true
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("encoding not stable across round trip:\n%s\n%s", b1, b2)
	}
}

// TestCampaignTelemetry: a spec with telemetry_every attaches per-job
// observability — records carry a deterministic Summary and jobs are
// re-keyed away from the plain campaign.
func TestCampaignTelemetry(t *testing.T) {
	spec := Spec{
		Modes:          []string{"tdm"},
		Patterns:       []string{"tornado"},
		Meshes:         []MeshSize{{Width: 4, Height: 4}},
		Rates:          []float64{0.15},
		WarmupCycles:   200,
		MeasureCycles:  1000,
		TelemetryEvery: 64,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	plain := spec
	plain.TelemetryEvery = 0
	pjobs, err := plain.Expand()
	if err != nil {
		t.Fatalf("expand plain: %v", err)
	}
	if jobs[0].Key == pjobs[0].Key {
		t.Error("telemetry job shares a cache key with the plain job")
	}
	if jobs[0].TelemetryEvery != 64 {
		t.Errorf("TelemetryEvery = %d, want 64", jobs[0].TelemetryEvery)
	}

	eng := New(Options{Workers: 1})
	recs := eng.Run(context.Background(), jobs)
	if recs[0].Err != "" {
		t.Fatalf("job failed: %s", recs[0].Err)
	}
	sum := recs[0].Telemetry
	if sum == nil {
		t.Fatal("record carries no telemetry summary")
	}
	if sum.Injected == 0 || sum.Ejected == 0 || sum.Events == 0 {
		t.Errorf("telemetry summary looks empty: %+v", sum)
	}
	if len(sum.Samples) == 0 {
		t.Error("telemetry summary has no time-series windows")
	}
}

// TestCampaignTelemetryParallelSim: a telemetry campaign over a parallel
// simulator executor runs cleanly and its per-job summary is
// byte-identical to the serial-executor run — the sharded recorder's
// deterministic merge holds through the campaign layer.
func TestCampaignTelemetryParallelSim(t *testing.T) {
	run := func(simWorkers int) []byte {
		spec := Spec{
			Modes:          []string{"tdm"},
			Patterns:       []string{"tornado"},
			Meshes:         []MeshSize{{Width: 4, Height: 4}},
			Rates:          []float64{0.15},
			WarmupCycles:   200,
			MeasureCycles:  1000,
			TelemetryEvery: 64,
			SimWorkers:     simWorkers,
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatalf("expand (sim_workers=%d): %v", simWorkers, err)
		}
		eng := New(Options{Workers: 1})
		recs := eng.Run(context.Background(), jobs)
		if recs[0].Err != "" {
			t.Fatalf("job failed (sim_workers=%d): %s", simWorkers, recs[0].Err)
		}
		if recs[0].Telemetry == nil {
			t.Fatalf("record carries no telemetry summary (sim_workers=%d)", simWorkers)
		}
		b, err := json.Marshal(recs[0].Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, parallel := run(1), run(2)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("telemetry summaries diverge between sim_workers 1 and 2:\n %s\n %s", serial, parallel)
	}
}

// TestSpecTelemetryValidation: telemetry conflicts fail loudly at
// Normalize instead of producing per-job attach errors.
func TestSpecTelemetryValidation(t *testing.T) {
	base := Spec{
		Modes:    []string{"tdm"},
		Patterns: []string{"ur"},
		Rates:    []float64{0.1},
	}
	neg := base
	neg.TelemetryEvery = -1
	if err := neg.Normalize(); err == nil {
		t.Error("negative telemetry_every accepted")
	}
	// Telemetry under a parallel executor is supported (sharded recorder
	// with deterministic merge), so this combination must normalize.
	par := base
	par.TelemetryEvery = 64
	par.SimWorkers = 2
	if err := par.Normalize(); err != nil {
		t.Errorf("telemetry with sim_workers 2 rejected: %v", err)
	}
	sdm := base
	sdm.TelemetryEvery = 64
	sdm.Modes = []string{"sdm"}
	if err := sdm.Normalize(); err == nil {
		t.Error("telemetry with sdm mode accepted")
	}
}
