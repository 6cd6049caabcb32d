package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/policy"
)

// policySpec is the smallest useful policy comparison: one tdm grid
// point under tornado, compared across static and greedy.
func policySpec() Spec {
	return Spec{
		Name:          "policy-test",
		Modes:         []string{"tdm"},
		Patterns:      []string{"tornado"},
		Meshes:        []MeshSize{{4, 4}},
		Rates:         []float64{0.15},
		Seeds:         []uint64{1},
		WarmupCycles:  300,
		MeasureCycles: 1200,
		PolicyProfile: &PolicyProfileSpec{Policies: []string{"static", "greedy"}},
	}
}

// expandStudy normalizes a study's spec, as RunSpec, Resolve and Report
// require, and expands its grid.
func expandStudy(t *testing.T, s *Spec) []Job {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	grid, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

func TestSpecPolicyProfileValidation(t *testing.T) {
	// "static" is prepended when missing so every report has a baseline.
	s := policySpec()
	s.PolicyProfile.Policies = []string{"greedy"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.PolicyProfile.Policies) != 2 || s.PolicyProfile.Policies[0] != "static" {
		t.Errorf("policies = %v, want static prepended", s.PolicyProfile.Policies)
	}
	if s.PolicyProfile.ProfileEvery != 512 {
		t.Errorf("profile_every defaulted to %d, want 512", s.PolicyProfile.ProfileEvery)
	}

	bad := []func(*Spec){
		func(s *Spec) { s.TelemetryEvery = 64 },                                // exclusive with telemetry campaigns
		func(s *Spec) { s.Modes = []string{"packet"} },                         // profiles need the TDM engine
		func(s *Spec) { s.Modes = []string{"tdm", "sdm"} },                     // ditto
		func(s *Spec) { s.PolicyProfile.Policies = []string{"bogus"} },         // unknown policy
		func(s *Spec) { s.PolicyProfile.Policies = []string{"greedy:-1"} },     // bad parameter
		func(s *Spec) { s.PolicyProfile.Policies = nil },                       // nothing to compare
		func(s *Spec) { s.PolicyProfile.ProfileEvery = -1 },                    // bad window
		func(s *Spec) { s.PolicyProfile.Policies = []string{"static", "sdm"} }, // not a policy name
		func(s *Spec) { // sdm-gate re-runs under sdm, which cannot host a mix
			s.Meshes, s.Patterns = []MeshSize{{6, 6}}, []string{"mix:EQUAKE+LPS"}
			s.PolicyProfile.Policies = []string{"static", "sdm-gate"}
		},
	}
	for i, mutate := range bad {
		s := policySpec()
		mutate(&s)
		if err := s.Normalize(); err == nil {
			t.Errorf("bad policy spec %d normalized without error", i)
		}
	}
}

// TestRunPolicyLoop runs a policy study through RunSpec and pins its
// contracts: both waves land in the one record store, the static
// baseline schedules no re-run (its run key is the base key, its deltas
// and decision are zero), a second run is served entirely from the
// store, and the report — a view over the records — comes back
// byte-identical, whether computed from the run or resolved from the
// store alone.
func TestRunPolicyLoop(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Two grid points, one per workload kind: the study must treat a
	// Section V mix exactly as it treats a synthetic pattern.
	spec := policySpec()
	spec.Patterns = append(spec.Patterns, "mix:EQUAKE+LPS")
	grid := expandStudy(t, &spec)
	eng := New(Options{Workers: 2, Store: store})
	recs := eng.RunSpec(context.Background(), spec, grid)
	// Wave 1's two profiling records, then wave 2's two greedy re-runs.
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4 (2 grid points x (profile + greedy))", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("record %s failed: %s", r.Label, r.Err)
		}
	}
	byKey := Lookup(recs)
	rep := spec.Report(grid, byKey)
	if len(rep.Outcomes) != 4 {
		t.Fatalf("outcomes = %d, want 4 (2 grid points x 2 policies)", len(rep.Outcomes))
	}
	for _, out := range rep.Outcomes {
		if out.Err != "" {
			t.Fatalf("outcome %s/%s failed: %s", out.Label, out.Policy, out.Err)
		}
		if out.EnergyPerFlit <= 0 || out.Throughput <= 0 {
			t.Errorf("outcome %s has empty metrics: %+v", out.Policy, out)
		}
	}
	for g, workload := range []string{"TOR", "mix:EQUAKE+LPS"} {
		static, greedy := rep.Outcomes[2*g], rep.Outcomes[2*g+1]
		if static.Policy != "static" || greedy.Policy != "greedy" || !strings.Contains(static.Label, workload) {
			t.Fatalf("%s: outcome order = %s/%s, %s/%s", workload, static.Label, static.Policy, greedy.Label, greedy.Policy)
		}
		// Static re-derives the base config exactly: same key, zero deltas.
		if static.RunKey != static.BaseKey || static.BaseKey != grid[g].Key {
			t.Errorf("%s: static run key %s, base key %s, grid key %s", workload, static.RunKey, static.BaseKey, grid[g].Key)
		}
		if static.EnergyDeltaPct != 0 || static.LatencyDeltaPct != 0 {
			t.Errorf("%s: static deltas nonzero: %+v", workload, static)
		}
		if !reflect.DeepEqual(static.Decision, policy.Decision{Policy: "static"}) {
			t.Errorf("%s: static decision mutates config: %+v", workload, static.Decision)
		}
		// The profiling record carries the flow table, under its own key.
		base, ok := byKey(grid[g].withProfile(spec.PolicyProfile.ProfileEvery).Key)
		if !ok || base.Key == grid[g].Key || base.Telemetry == nil || len(base.Telemetry.Flows) == 0 {
			t.Errorf("%s: wave-1 record key %s (grid %s) carries no flow table", workload, base.Key, grid[g].Key)
		}
		// Greedy pins flows and produces a distinct run of the same workload.
		if len(greedy.Decision.PinnedFlows) == 0 {
			t.Errorf("%s: greedy pinned no flows", workload)
		}
		if rerun, ok := byKey(greedy.RunKey); greedy.RunKey == greedy.BaseKey || !ok || rerun.Key != greedy.RunKey {
			t.Errorf("%s: greedy re-run key %s, base %s, record %s (found %v)", workload, greedy.RunKey, greedy.BaseKey, rerun.Key, ok)
		}
		if rec, ok := store.Lookup(greedy.RunKey); !ok || rec.Pattern != workload {
			t.Errorf("%s: greedy re-run stored as %+v (found %v)", workload, rec.Pattern, ok)
		}
	}
	if st := eng.Status(); st.CacheHits != 0 || st.Done != 4 {
		t.Errorf("first run: %+v, want 4 jobs done and no cache hits", st)
	}

	// Second run over the same store: every job of both waves is a
	// cache hit and the report comes back identical.
	eng2 := New(Options{Workers: 2, Store: store})
	recs2 := eng2.RunSpec(context.Background(), spec, grid)
	if st := eng2.Status(); st.CacheHits != st.Done || st.Done != 4 {
		t.Errorf("second run simulated fresh jobs: %+v", st)
	}
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(spec.Report(grid, Lookup(recs2)))
	if string(b1) != string(b2) {
		t.Errorf("reports differ across cached re-runs:\n%s\n%s", b1, b2)
	}
	// ... and the store alone holds the same records.
	b3, _ := json.Marshal(spec.Report(grid, store.Lookup))
	if string(b1) != string(b3) {
		t.Errorf("report resolved from the store differs:\n%s\n%s", b1, b3)
	}
}

// TestWalkWaves pins the spec walk RunSpec and Resolve share: a plain
// spec is one call of the runner over its grid; a policy study is two —
// the profiled grid, then exactly the re-runs its decisions imply — and
// Resolve over the store the run filled returns the same records, byte
// for byte.
func TestWalkWaves(t *testing.T) {
	plain := policySpec()
	plain.PolicyProfile = nil
	grid := expandStudy(t, &plain)
	var waves [][]Job
	run := func(eng *Engine) func([]Job) []Record {
		return func(wave []Job) []Record {
			waves = append(waves, wave)
			return eng.Run(context.Background(), wave)
		}
	}
	plain.walk(grid, run(New(Options{Workers: 2, Runner: stubRunner})))
	if len(waves) != 1 || !reflect.DeepEqual(waves[0], grid) {
		t.Fatalf("plain spec: runner called with %v, want once with its grid", waves)
	}

	store, err := OpenStore(filepath.Join(t.TempDir(), "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := policySpec()
	spec.Patterns = append(spec.Patterns, "transpose")
	spec.PolicyProfile.Policies = []string{"static", "threshold", "greedy"}
	grid = expandStudy(t, &spec)
	waves = nil
	recs := spec.walk(grid, run(New(Options{Workers: 2, Store: store})))
	if len(waves) != 2 {
		t.Fatalf("policy study: runner called %d times, want 2", len(waves))
	}
	var want []string
	for i, j := range grid {
		if p := waves[0][i]; p.Key != j.withProfile(spec.PolicyProfile.ProfileEvery).Key {
			t.Errorf("wave 1 job %d is %s, want %s profiled", i, p.Label, j.Label)
		}
		outs, _ := spec.decide(j, recs[i])
		for _, out := range outs {
			if out.Err != "" {
				t.Fatalf("%s/%s: %s", j.Label, out.Policy, out.Err)
			}
			if out.RunKey != j.Key {
				want = append(want, out.RunKey)
			}
		}
	}
	var got []string
	for _, j := range waves[1] {
		got = append(got, j.Key)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("wave 2 keys = %v, want the decisions' re-runs %v", got, want)
	}

	b1, _ := json.Marshal(recs)
	b2, _ := json.Marshal(spec.Resolve(grid, store.Lookup))
	if string(b1) != string(b2) {
		t.Errorf("Resolve over the store differs from the walk's records:\n%s\n%s", b2, b1)
	}
}

// TestDecisionFromWave1Record: for every built-in policy on both Fig. 4
// miniature points, the decision derived from a stored wave-1 record
// equals Decide over the profile ExtractProfile reads off a live
// simulator of the same run — the record carries everything a policy
// decides from.
func TestDecisionFromWave1Record(t *testing.T) {
	if testing.Short() {
		t.Skip("four 6x6 simulations in -short mode")
	}
	spec := fig4Miniature(policy.Names()...)
	grid := expandStudy(t, &spec)
	store, err := OpenStore(filepath.Join(t.TempDir(), "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	New(Options{Workers: 2, Store: store}).RunSpec(context.Background(), spec, grid)
	store.Close()
	stored, err := OpenStore(store.Path()) // decode from disk, as a fleet coordinator does
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	for _, j := range grid {
		base, ok := stored.Lookup(j.withProfile(spec.PolicyProfile.ProfileEvery).Key)
		if !ok {
			t.Fatalf("%s: no wave-1 record", j.Label)
		}
		s := hsnoc.NewSynthetic(j.Config, j.Pattern, j.Rate)
		if _, err := s.AttachTelemetry(hsnoc.FlowProfileTelemetry(spec.PolicyProfile.ProfileEvery)); err != nil {
			t.Fatal(err)
		}
		s.Warmup(j.Warmup)
		s.Run(j.Measure)
		prof, err := s.ExtractProfile()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		outs, _ := spec.decide(j, base)
		for i, out := range outs {
			pol, err := policy.Parse(spec.PolicyProfile.Policies[i])
			if err != nil {
				t.Fatal(err)
			}
			if want := pol.Decide(prof); !reflect.DeepEqual(out.Decision, want) {
				t.Errorf("%s/%s: decision from the record %+v, from ExtractProfile %+v", j.Label, pol.Name(), out.Decision, want)
			}
		}
	}
}

// fig4Miniature is scenarios/fig4_policy.json's grid under the given
// policies, normalized.
func fig4Miniature(policies ...string) Spec {
	spec := Spec{
		Name:          "fig4-policy",
		Modes:         []string{"tdm"},
		Patterns:      []string{"tornado", "transpose"},
		Meshes:        []MeshSize{{6, 6}},
		Rates:         []float64{0.20},
		Seeds:         []uint64{1},
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		PolicyProfile: &PolicyProfileSpec{Policies: policies},
	}
	if err := spec.Normalize(); err != nil {
		panic(err)
	}
	return spec
}

// TestGreedyBeatsStaticOnFig4Miniatures is the policy layer's headline
// acceptance: on two Fig. 4 permutation miniatures at 0.20 injection
// the profiled greedy policy strictly improves energy-per-flit over the
// static baseline.
func TestGreedyBeatsStaticOnFig4Miniatures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second policy loop in -short mode")
	}
	spec := fig4Miniature("static", "greedy")
	grid := expandStudy(t, &spec)
	eng := New(Options{Workers: 4})
	rep := spec.Report(grid, Lookup(eng.RunSpec(context.Background(), spec, grid)))
	improved := 0
	for _, out := range rep.Outcomes {
		if out.Err != "" {
			t.Fatalf("outcome %s/%s failed: %s", out.Label, out.Policy, out.Err)
		}
		if out.Policy != "greedy" {
			continue
		}
		t.Logf("%s: energy %+.2f%%, latency %+.2f%%", out.Label, out.EnergyDeltaPct, out.LatencyDeltaPct)
		if out.EnergyDeltaPct < 0 {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("greedy improved energy-per-flit on %d of 2 miniatures", improved)
	}
}
