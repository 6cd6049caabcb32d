package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMetricNameCharset(t *testing.T) {
	for _, good := range []string{"wall_s", "hsnoc.new_ms.32x32", "campaign.shardjobs_ms.8640", "6x6", "a-b"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
	for _, bad := range []string{"", ".leading_dot", "_x", "has space", "slash/name", "pct%", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"ms", "1/s", "%", "MB/s", "1/kcycle"} {
		if !unitRE.MatchString(good) {
			t.Errorf("unit %q rejected", good)
		}
	}
	for _, bad := range []string{"", "flits per cycle", strings.Repeat("u", 17)} {
		if unitRE.MatchString(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestContractValidates(t *testing.T) {
	c := buildContract()
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	dup := buildContract()
	dup.PerLayer = append(dup.PerLayer, contractLayer{"wall_s", "s", "lower"})
	if err := dup.validate(); err == nil {
		t.Error("a name used twice must be refused")
	}
	loose := buildContract()
	loose.EndToEnd[1].Bound = 0.3
	if err := loose.validate(); err == nil {
		t.Error("a bound above 0.25 must be refused")
	}
	noSetup := buildContract()
	noSetup.EndToEnd = noSetup.EndToEnd[1:]
	if err := noSetup.validate(); err == nil {
		t.Error("a contract without setup_s must be refused")
	}
	if len(workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads implement %d definitions", len(workloads), len(workloadDefs))
	}
}

// BENCHMARK.json must be exactly what the registries render: the file
// the driver reads and the metrics the program prints cannot drift.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk contractFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json does not fit the schema: %v", err)
	}
	if err := onDisk.validate(); err != nil {
		t.Fatal(err)
	}
	if want := buildContract(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the registries; regenerate with `go run ./benchmark -emit-contract > BENCHMARK.json`")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
}

func TestResultLineRoundTrip(t *testing.T) {
	values := map[string]float64{"setup_s": 0.5, "wall_s": 12.25, "work_per_s": 1.5e6, "peak_rss_mb": 25.5}
	res := renderResult(28, 0, endToEndDefs, values)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(keys), b)
	}
	var back resultLine
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, res) {
		t.Errorf("round trip changed the result: %v %+v", err, back)
	}
	if len(back.Metrics) != len(endToEndDefs) || back.Metrics["wall_s"] != (metricValue{12.25, "s"}) {
		t.Errorf("metrics %+v", back.Metrics)
	}

	failed := renderResult(28, 40, endToEndDefs, values)
	if failed.Correct || failed.Failed != 28 || len(failed.Metrics) != 0 {
		t.Errorf("a failed run must withhold its metrics and cap failed at attempted: %+v", failed)
	}
	if _, err := fillMetrics(endToEndDefs, map[string]float64{"undeclared": 1}); err == nil {
		t.Error("an undeclared metric must be refused")
	}
	layer, err := fillMetrics(perLayerDefs, map[string]float64{"hybrid.lookup_ns": 3})
	if err != nil || len(layer) != len(perLayerDefs) {
		t.Errorf("per-layer rendering: %v, %d metrics", err, len(layer))
	}
}

func TestNormalizeArgsFoldsDriverTraceFlag(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hetero6x6", "--seed", "3", "--seconds", "15", "--trace", "1"})
	want := []string{"--workload", "hetero6x6", "--seed", "3", "--seconds", "15", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-seed", "1"})
	if !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("a bare -trace must stay a boolean: %v", got)
	}
}
