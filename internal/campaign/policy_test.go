package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

func TestProfileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.jsonl")
	ps, err := OpenProfileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	p := &policy.Profile{ConfigHash: "abc", Mode: "tdm", Width: 4, Height: 4, Injected: 42}
	if err := ps.Append("k1", p); err != nil {
		t.Fatal(err)
	}
	// Duplicate appends dedup on key.
	if err := ps.Append("k1", p); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 1 {
		t.Fatalf("Len = %d after dedup, want 1", ps.Len())
	}
	ps.Close()

	back, err := OpenProfileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got, ok := back.Lookup("k1")
	if !ok || got.Injected != 42 || got.ConfigHash != "abc" {
		t.Fatalf("Lookup after reopen = %+v, %v", got, ok)
	}
	if _, ok := back.Lookup("k2"); ok {
		t.Error("Lookup invented a profile")
	}
}

// TestRunPolicyLoop drives the full offline loop on the miniature spec
// and pins its cache contracts: the static baseline is a store cache
// hit (its derived config hashes identically to the profiled run), and
// a second loop over the same stores re-simulates nothing in phase A.
func TestRunPolicyLoop(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	profiles, err := OpenProfileStore(filepath.Join(dir, "profiles.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer profiles.Close()

	// Two grid points, one per workload kind: the loop must treat a
	// Section V mix exactly as it treats a synthetic pattern.
	spec := policySpec()
	spec.Patterns = append(spec.Patterns, "mix:EQUAKE+LPS")
	eng := New(Options{Workers: 2, JobTimeout: time.Minute, Store: store})
	rep, err := RunPolicyLoop(context.Background(), eng, spec, profiles)
	if err != nil {
		t.Fatalf("RunPolicyLoop: %v", err)
	}
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
		if static.RunKey != static.BaseKey {
			t.Errorf("%s: static run key %s != base key %s", workload, static.RunKey, static.BaseKey)
		}
		if static.EnergyDeltaPct != 0 || static.LatencyDeltaPct != 0 {
			t.Errorf("%s: static deltas nonzero: %+v", workload, static)
		}
		if !static.Decision.IsZero() {
			t.Errorf("%s: static decision mutates config: %+v", workload, static.Decision)
		}
		// Greedy pins flows and produces a distinct run of the same workload.
		if len(greedy.Decision.PinnedFlows) == 0 {
			t.Errorf("%s: greedy pinned no flows", workload)
		}
		if greedy.RunKey == greedy.BaseKey {
			t.Errorf("%s: greedy re-run key equals base key — decision not applied", workload)
		}
		if rec, ok := store.Lookup(greedy.RunKey); !ok || rec.Pattern != workload {
			t.Errorf("%s: greedy re-run stored as %+v (found %v)", workload, rec.Pattern, ok)
		}
	}
	// ... which makes each static baseline a cache hit against its
	// phase-A record.
	if hits := eng.Status().CacheHits; hits != 2 {
		t.Errorf("cache hits = %d, want 2 (one static baseline per grid point)", hits)
	}
	if profiles.Len() != 2 {
		t.Errorf("profile store holds %d profiles, want 2", profiles.Len())
	}

	// Second loop over the same stores: phase A is fully cached, so the
	// fresh engine simulates only already-cached phase-B jobs — every
	// job it sees is a cache hit and the report comes back identical.
	eng2 := New(Options{Workers: 2, JobTimeout: time.Minute, Store: store})
	rep2, err := RunPolicyLoop(context.Background(), eng2, spec, profiles)
	if err != nil {
		t.Fatalf("second RunPolicyLoop: %v", err)
	}
	st := eng2.Status()
	if st.CacheHits != st.Done || st.Done == 0 {
		t.Errorf("second loop simulated fresh jobs: %+v", st)
	}
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Errorf("reports differ across cached re-runs:\n%s\n%s", b1, b2)
	}
}

// TestGreedyBeatsStaticOnFig4Miniatures is the issue's headline
// acceptance: on two Fig. 4 permutation miniatures at 0.20 injection
// the profiled greedy policy strictly improves energy-per-flit over the
// static baseline.
func TestGreedyBeatsStaticOnFig4Miniatures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second policy loop in -short mode")
	}
	spec := Spec{
		Name:          "fig4-policy",
		Modes:         []string{"tdm"},
		Patterns:      []string{"tornado", "transpose"},
		Meshes:        []MeshSize{{6, 6}},
		Rates:         []float64{0.20},
		Seeds:         []uint64{1},
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		PolicyProfile: &PolicyProfileSpec{Policies: []string{"static", "greedy"}},
	}
	eng := New(Options{Workers: 4, JobTimeout: 2 * time.Minute})
	rep, err := RunPolicyLoop(context.Background(), eng, spec, nil)
	if err != nil {
		t.Fatalf("RunPolicyLoop: %v", err)
	}
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
