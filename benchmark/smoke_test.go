package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// lastResult decodes the last line a single-workload run printed.
func lastResult(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmokeAllWorkloads runs every workload at smoke size through the
// driver's own entry point: each must pass its health and correctness
// gate and print every end-to-end metric, all within 20 s.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloads {
		if reason := w.refuse(); reason != "" {
			t.Logf("%s refused on this host: %s", w.def.Name, reason)
			continue
		}
		var stdout bytes.Buffer
		code := run([]string{"--workload", w.def.Name, "--seed", "7", "--seconds", "15", "-smoke", "-out", out, "--trace", "0"}, &stdout)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.def.Name, code, stdout.String())
		}
		res := lastResult(t, stdout.Bytes())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %+v\n%s", w.def.Name, res, stdout.String())
			continue
		}
		for _, d := range endToEndDefs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.def.Name, d.Name, m, d.Unit)
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second && !raceEnabled {
		t.Errorf("smoke run of all workloads took %v, want under 20 s", d)
	}
}

// TestSmokeTracedPass runs one traced pass: every per-layer metric is
// printed by name and the span files are written.
func TestSmokeTracedPass(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "traced6x6", "--seed", "7", "-smoke", "-out", out, "--trace", "1"}, &stdout); code != 0 {
		t.Fatalf("exit %d\n%s", code, stdout.String())
	}
	res := lastResult(t, stdout.Bytes())
	if !res.Correct {
		t.Fatalf("traced pass failed: %s", stdout.String())
	}
	for _, d := range perLayerDefs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", d.Name, m)
		}
	}
	for _, name := range []string{"obs.events_per_cycle", "policy.extract_ms", "hybrid.lookup_ns", "sim.empty_step_ns.w2", "fleet.lease_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want positive on traced6x6", name, res.Metrics[name].Value)
		}
	}
	for _, suffix := range []string{".trace.json", ".selftime.txt"} {
		path := filepath.Join(out, "traced6x6-seed7"+suffix)
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}

func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "hetero6x6", "-seconds", "0"}, &stdout); code != 2 {
		t.Errorf("-seconds 0: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused invocation must print no result: %s", stdout.String())
	}
}
