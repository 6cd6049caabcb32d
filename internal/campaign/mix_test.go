package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
	"tdmnoc/scenarios"
)

// TestMixJobReproducesGoldenHetero runs the four (mix, config) points
// hsnoc/testdata/golden-hetero.json pins as campaign jobs and requires
// the record to carry the same Section V figures: a mix through the
// engine's Simulate is the run hsnoc.New gives a direct
// caller, and the record loses nothing Figs. 8-9 and Table III read.
func TestMixJobReproducesGoldenHetero(t *testing.T) {
	raw, err := os.ReadFile("../../hsnoc/testdata/golden-hetero.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins []struct {
		Mix              string       `json:"mix"` // <GPU>/<CPU>
		Config           string       `json:"config"`
		CPUInstructions  int64        `json:"cpu_instructions"`
		GPUIterations    int64        `json:"gpu_iterations"`
		GPUInjectionRate float64      `json:"gpu_injection_rate"`
		GPUCSFraction    float64      `json:"gpu_cs_fraction"`
		Hitchhikes       int64        `json:"hitchhikes"`
		VicinityRides    int64        `json:"vicinity_rides"`
		Energy           hsnoc.Energy `json:"energy"`
		Cycles           int64        `json:"cycles"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != 4 {
		t.Fatalf("golden-hetero.json holds %d pins, want 4", len(pins))
	}
	hop := hsnoc.DefaultConfig(6, 6)
	hop.Mode, hop.PathSharing, hop.VCPowerGating = hsnoc.HybridTDM, true, true
	configs := map[string]hsnoc.Config{"Packet-VC4": hsnoc.DefaultConfig(6, 6), "Hybrid-TDM-hop-VCt": hop}
	// Sum-form fields round-trip through one multiply and one divide.
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for _, pin := range pins {
		gpu, cpu, _ := strings.Cut(pin.Mix, "/")
		cfg, ok := configs[pin.Config]
		if !ok {
			t.Fatalf("golden-hetero.json names unknown config %q", pin.Config)
		}
		j := NewMixJob(cfg, cpu, gpu, 2000, 6000, pin.Mix+"/"+pin.Config)
		rr, sum, err := Simulate(context.Background(), j)
		if err != nil || sum != nil {
			t.Fatalf("%s: Simulate = summary %v, error %v", j.Label, sum, err)
		}
		if rr.Runs != 1 || rr.Cycles != pin.Cycles || rr.CPUInstructions != pin.CPUInstructions ||
			rr.GPUIterations != pin.GPUIterations || rr.Hitchhikes != pin.Hitchhikes || rr.VicinityRides != pin.VicinityRides {
			t.Errorf("%s: counters = %+v, want %+v", j.Label, rr, pin)
		}
		if !near(rr.GPUInjectionRate(), pin.GPUInjectionRate) || !near(rr.GPUCSFraction(), pin.GPUCSFraction) {
			t.Errorf("%s: GPU injection %v / CS fraction %v, want %v / %v", j.Label,
				rr.GPUInjectionRate(), rr.GPUCSFraction(), pin.GPUInjectionRate, pin.GPUCSFraction)
		}
		if rr.EnergyPJ != pin.Energy.TotalPJ || !reflect.DeepEqual(rr.DynamicPJ, pin.Energy.DynamicPJ) ||
			!reflect.DeepEqual(rr.StaticPJ, pin.Energy.StaticPJ) {
			t.Errorf("%s: energy = %v / %v / %v, want %+v", j.Label, rr.EnergyPJ, rr.DynamicPJ, rr.StaticPJ, pin.Energy)
		}
	}
}

// TestSyntheticRecordOmitsMixFields is the other half of the record
// contract: the Section V fields never appear in a synthetic job's
// stored line, so stores written before they existed stay byte-equal.
func TestSyntheticRecordOmitsMixFields(t *testing.T) {
	j := NewJob(hsnoc.DefaultConfig(4, 4), hsnoc.Tornado, 0.1, 100, 300, "synthetic")
	rr, _, err := Simulate(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cpu_instructions", "gpu_", "dynamic_pj", "static_pj"} {
		if strings.Contains(string(b), field) {
			t.Errorf("synthetic record encodes %q: %s", field, b)
		}
	}
}

// TestMixJobRefusedIsAnError: what hsnoc.New refuses comes back
// from the runner as the job's error, not as a panic.
func TestMixJobRefusedIsAnError(t *testing.T) {
	sdm := hsnoc.DefaultConfig(6, 6)
	sdm.Mode = hsnoc.HybridSDM
	for name, j := range map[string]Job{
		"unknown benchmark": NewMixJob(hsnoc.DefaultConfig(6, 6), "EQUAKE", "NOPE", 10, 10, "x"),
		"sdm":               NewMixJob(sdm, "EQUAKE", "LPS", 10, 10, "x"),
		"2x2 mesh":          NewMixJob(hsnoc.DefaultConfig(2, 2), "EQUAKE", "LPS", 10, 10, "x"),
	} {
		recs := New(Options{Workers: 1}).Run(context.Background(), []Job{j})
		if recs[0].Err == "" || strings.Contains(recs[0].Err, "panic") {
			t.Errorf("%s: Err = %q, want the constructor's refusal", name, recs[0].Err)
		}
	}
}

// TestNormalizeRefusesWhatCheckRefuses: Spec.Normalize asks hsnoc.Check
// about every mix, mesh and mode a job or a policy re-run would use, so
// its refusal is Check's error, wrapped behind the campaign: prefix.
func TestNormalizeRefusesWhatCheckRefuses(t *testing.T) {
	tdm, sdm, small := hsnoc.DefaultConfig(6, 6), hsnoc.DefaultConfig(6, 6), hsnoc.DefaultConfig(2, 2)
	tdm.Mode, sdm.Mode, small.Mode = hsnoc.HybridTDM, hsnoc.HybridSDM, hsnoc.HybridTDM
	for _, tc := range []struct {
		spec Spec
		cfg  hsnoc.Config
		mix  hsnoc.Mix
	}{
		{Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:QUAKE+LPS"}}, tdm, hsnoc.Mix{CPU: "QUAKE", GPU: "LPS"}},
		{Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LSP"}}, tdm, hsnoc.Mix{CPU: "EQUAKE", GPU: "LSP"}},
		{Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE"}}, tdm, hsnoc.Mix{CPU: "EQUAKE"}},
		{Spec{Modes: []string{"tdm", "sdm"}, Patterns: []string{"mix:EQUAKE+LPS"}}, sdm, hsnoc.Mix{CPU: "EQUAKE", GPU: "LPS"}},
		{Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LPS"}, Meshes: []MeshSize{{2, 2}}}, small, hsnoc.Mix{CPU: "EQUAKE", GPU: "LPS"}},
		{Spec{Modes: []string{"tdm"}, Patterns: []string{"mix:EQUAKE+LPS"}, // sdm-gate re-runs on sdm
			PolicyProfile: &PolicyProfileSpec{Policies: []string{"static", "sdm-gate"}}}, sdm, hsnoc.Mix{CPU: "EQUAKE", GPU: "LPS"}},
	} {
		want := hsnoc.Check(tc.cfg, tc.mix)
		if want == nil {
			t.Fatalf("%v: hsnoc.Check accepts %+v", tc.spec.Patterns, tc.mix)
		}
		err := tc.spec.Normalize()
		if err == nil || err.Error() != "campaign: "+want.Error() {
			t.Errorf("%+v: Normalize returned %v, want %q", tc.spec, err, "campaign: "+want.Error())
			continue
		}
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != want.Error() {
			t.Errorf("%+v: Normalize's error wraps %v, want Check's %q", tc.spec, inner, want)
		}
	}
}

// TestEngineRunIsABoundedPool: Run used to start one goroutine per
// uncached job and only then queue them on a semaphore, so a
// MaxJobs-sized campaign parked a million goroutines. The pool is
// Workers goroutines, whatever the list length.
func TestEngineRunIsABoundedPool(t *testing.T) {
	const workers, n = 4, 50000
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		if g := int64(runtime.NumGoroutine()); g > peak.Load() {
			peak.Store(g) // racy max is fine: any observed value over the bound fails
		}
		return stats.RunRecord{Runs: 1, Packets: int64(j.Measure)}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	base := NewJob(cfg, hsnoc.Tornado, 0.1, 0, 1, "pool")
	jobs := make([]Job, n)
	for i := range jobs {
		// Distinct keys without 50 000 config hashes.
		jobs[i] = base
		jobs[i].Key, jobs[i].Measure = base.Key+"/"+strconv.Itoa(i), i
	}
	eng := New(Options{Workers: workers, Runner: runner})
	recs := eng.Run(context.Background(), jobs)
	if got, limit := peak.Load(), int64(before+workers+4); got > limit {
		t.Errorf("peak goroutines during a %d-job run = %d, want <= %d (%d before + %d workers + slack)", n, got, limit, before, workers)
	}
	for i, r := range recs {
		if r.Err != "" || r.Result.Packets != int64(i) {
			t.Fatalf("record %d = %+v: order not preserved", i, r)
		}
	}
	if st := eng.Status(); st.Done != n || st.Queued != 0 || st.Running != 0 {
		t.Errorf("status = %+v, want %d done and an empty queue", st, n)
	}
}

// TestCommittedSpecsParse keeps the spec files the docs tell users to
// submit valid under this binary's Normalize — the embedded scenarios,
// miniatures and full/ alike, and the examples — and pins the job count
// of every figure's grid.
func TestCommittedSpecsParse(t *testing.T) {
	want := map[string]int{"table3.json": 7, "fig8_policy.json": 56,
		"fig4.json": 48, "fig5.json": 36, "fig8.json": 224, "fig9.json": 28, "ablation.json": 8, "granularity.json": 8,
		"full/fig4.json": 132, "full/fig5.json": 99, "full/fig8.json": 224, "full/fig9.json": 112,
		"full/table3.json": 7, "full/ablation.json": 8, "full/granularity.json": 14}
	open := map[string]func(string) (fs.File, error){}
	for _, pattern := range []string{"*.json", "full/*.json"} {
		paths, err := fs.Glob(scenarios.FS, pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("glob %s: %v, %v", pattern, paths, err)
		}
		for _, path := range paths {
			open[path] = scenarios.FS.Open
		}
	}
	examples, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(examples) == 0 {
		t.Fatalf("glob examples: %v, %v", examples, err)
	}
	for _, path := range examples {
		open[path] = func(name string) (fs.File, error) { return os.Open(name) }
	}
	for path, o := range open {
		f, err := o(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if n, ok := want[path]; ok && spec.Jobs() != n {
			t.Errorf("%s expands to %d jobs, want %d", path, spec.Jobs(), n)
		}
		delete(want, path)
	}
	if len(want) > 0 {
		t.Errorf("specs missing from the embedded scenarios: %v", want)
	}
}
