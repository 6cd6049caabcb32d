package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// experiments runs the command in-process the way main does.
func experiments(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// The rows below were printed by the commit before fig8/table3 moved
// onto the campaign engine (which ran them on a private goroutine pool
// straight off hsnoc.Results), so they pin that the move changed no
// figure: same jobs, same records, same formatting.

func TestFig8QuickRows(t *testing.T) {
	code, out, errOut := experiments("-exp", "fig8", "-quick", "-mixes", "2", "-workers", "2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"== Figure 8: heterogeneous workload mixes (6x6, Fig. 7 layout) ==",
		"                            TDM    hop hopVCt     TDM    hop hopVCt     TDM    hop hopVCt",
		"BLACKSCHOLES/AMMP         14.8%  13.7%  20.6%   1.000  1.000  1.000   1.003  1.002  0.999",
		"LPS/GAFORT                14.6%  13.2%  16.9%   1.000  1.000  1.000   0.999  0.995  0.998",
		"AVG (geomean)             14.7%  13.5%  18.8%   1.000  1.000  1.000   1.001  0.999  0.999",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output lacks the row %q:\n%s", want, out)
		}
	}
}

func TestTable3QuickRows(t *testing.T) {
	code, out, errOut := experiments("-exp", "table3", "-quick", "-workers", "2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		// The header is an argument, not a format: one %, not two.
		"GPU benchmark  injection (paper->ours) CS flits % (paper->ours)",
		"BLACKSCHOLES         0.18 ->  0.199        55.7 ->  37.5",
		"HOTSPOT              0.09 ->  0.094        29.1 ->  32.6",
		"LIB                  0.20 ->  0.239        34.4 ->  21.3",
		"LPS                  0.20 ->  0.230        55.0 ->  33.3",
		"NN                   0.18 ->  0.213        38.9 ->  23.1",
		"PATHFINDER           0.13 ->  0.140        49.1 ->  42.2",
		"STO                  0.05 ->  0.052        18.5 ->  10.9",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output lacks the row %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	code, out, errOut := experiments("-exp", "fig7")
	if code != 2 || out != "" || !strings.Contains(errOut, `unknown experiment "fig7"`) {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 naming the experiment", code, out, errOut)
	}
	if code, _, _ := experiments("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestFailedJobPrintsNAAndExitsOne injects failures through the engine's
// Runner: every figure that needs a failed job must print n/a — never
// NaN, +Inf or a figure computed from an empty record — the job's error
// must reach stderr, and the command must exit 1.
func TestFailedJobPrintsNAAndExitsOne(t *testing.T) {
	instant := func(j campaign.Job) stats.RunRecord {
		return stats.RunRecord{Runs: 1, Cycles: int64(j.Measure), Packets: 100, EnergyPJ: 1000, PayloadCycles: 0.1 * float64(j.Measure),
			CPUInstructions: 500, GPUIterations: 50, GPUFlitCycles: 10, GPUCSFlitCycles: 5,
			DynamicPJ: map[string]float64{"buffer": 600}, StaticPJ: map[string]float64{"buffer": 400}}
	}
	failing := func(label string) campaign.Runner {
		return func(_ context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
			if strings.Contains(j.Label, label) {
				return stats.RunRecord{}, nil, errors.New("injected failure")
			}
			return instant(j), nil, nil
		}
	}
	for _, tc := range []struct {
		exp, fail string
		want      []string // rows that must appear
	}{
		// A failed baseline blanks its mix's row but not the other mix,
		// and the AVG covers the rows that have a figure.
		{"fig8", "BLACKSCHOLES/AMMP/Packet-VC4", []string{
			"BLACKSCHOLES/AMMP           n/a    n/a    n/a     n/a    n/a    n/a     n/a    n/a    n/a",
			"LPS/GAFORT                 0.0%   0.0%   0.0%   1.000  1.000  1.000   1.000  1.000  1.000",
			"AVG (geomean)              0.0%   0.0%   0.0%   1.000  1.000  1.000   1.000  1.000  1.000"}},
		// A failed variant blanks its own column only.
		{"fig8", "LPS/GAFORT/Hybrid-TDM-hop-VC4", []string{
			"LPS/GAFORT                 0.0%    n/a   0.0%   1.000    n/a  1.000   1.000    n/a  1.000"}},
		{"fig9", "HOTSPOT/AMMP/Packet-VC4", []string{"HOTSPOT        n/a", "BLACKSCHOLES   dyn: buffer 100.0%->100.0%"}},
		{"table3", "LIB/EQUAKE", []string{
			"LIB                  0.20 ->    n/a        34.4 ->   n/a",
			"LPS                  0.20 ->  0.001        55.0 ->  50.0"}},
		{"fig5", "base", []string{"    0.05                n/a                n/a"}},
		// Every baseline failed: no saturation load, so no throughput
		// gain and no energy sample.
		{"fig6", "base", []string{" 8x8  UR : max throughput 0.000 -> 0.100 (n/a), energy saving at 75% load: n/a"}},
		{"ablation", "Packet-VC4", []string{"full hybrid                     0.0        n/a"}},
		{"granularity", "TDM-64-slots", []string{"TDM-64-slots            0.0        n/a", "TDM-16-slots            0.0       0.0%"}},
	} {
		var out, errOut bytes.Buffer
		rc := &runConfig{stdout: &out, stderr: &errOut, runner: failing(tc.fail)}
		code := rc.main([]string{"-exp", tc.exp, "-quick", "-mixes", "2", "-workers", "2"})
		if code != 1 {
			t.Errorf("%s with %s failing: exit %d, want 1", tc.exp, tc.fail, code)
		}
		if !strings.Contains(errOut.String(), "failed: injected failure") || !strings.Contains(errOut.String(), tc.fail) {
			t.Errorf("%s: stderr does not name the failed job %s:\n%s", tc.exp, tc.fail, errOut.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s with %s failing: output lacks %q:\n%s", tc.exp, tc.fail, want, out.String())
			}
		}
		if s := out.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("%s with %s failing printed NaN/Inf:\n%s", tc.exp, tc.fail, s)
		}
	}
}
