package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// experiments runs the command in-process the way main does.
func experiments(args ...string) (code int, stdout, stderr string) {
	return experimentsWith(nil, args...)
}

// experimentsWith runs the command with runner executing its jobs (nil
// = the simulator).
func experimentsWith(runner campaign.Runner, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = (&runConfig{stdout: &out, stderr: &errOut, runner: runner}).main(args)
	return code, out.String(), errOut.String()
}

// instant is a Runner that returns a fixed, non-empty record at once.
func instant(_ context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
	return stats.RunRecord{Runs: 1, Cycles: int64(j.Measure), Packets: 100, EnergyPJ: 1000, PayloadCycles: 0.1 * float64(j.Measure),
		CPUInstructions: 500, GPUIterations: 50, GPUFlitCycles: 10, GPUCSFlitCycles: 5,
		DynamicPJ: map[string]float64{"buffer": 600}, StaticPJ: map[string]float64{"buffer": 400}}, nil, nil
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

// TestFigureSpecsKeepJobKeys pins every spec-backed figure's jobs, at
// -quick and at paper size: the job count and a sha256 over the sorted
// job keys. The literals were printed by the hand-built job lists the
// committed specs replaced, so every record store those lists filled
// still serves the figures.
func TestFigureSpecsKeepJobKeys(t *testing.T) {
	for _, c := range []struct {
		name  string
		quick bool
		mixes int
		jobs  int
		sum   string
	}{
		{"fig4", false, 56, 132, "369491c170a444520e0d430b56684cedaba6dff8d2fabbc68bc06d67f8ca29a5"},
		{"fig4", true, 56, 48, "353cbda6513abc823f4d2bf6b8bff7444573a0254c49935784a780a517565b19"},
		{"fig5", false, 56, 99, "2ce393a9c738bffc2b5e59cd5a604fdf59a25a270d8dfae4c090a691e96817fd"},
		{"fig5", true, 56, 36, "378e7e1d9e6508be61d417ed93ca5f951a5abc44584650f2074fe7c5b9ab2182"},
		{"fig8", false, 56, 224, "b88ef3d22cb4dad387e1a7ae5317638a1517f6368c08b806decdb0af1708b3dd"},
		{"fig8", true, 56, 224, "cd1628e555347cbfe8ce01e517f41bdad3a9f11bb78fea1aba59f6736a232723"},
		{"fig8", false, 2, 8, "8c9e1cbcaae09491fd864faeaee2c248b1867cb37a52773e5b529d968d2ed498"},
		{"fig8", true, 2, 8, "e49d6553fe511d90cec4b3f722ffbf0a6e224bfbb42f257d32d72d5f56b5f76e"},
		{"fig8", false, 4, 16, "b260eda7dc94f2e411a212d9562ee72e6c484cd44822f993f130bd467231ea2a"},
		{"fig8", true, 4, 16, "01686d7e4d0fdb6f445879d97d455a15b8f73a93e98201938bd5ca2c22625ad7"},
		{"fig9", false, 56, 112, "49007473156feca42f934e2a3a37743d6b42c0325f50131cda04cf606f2d3d3a"},
		{"fig9", true, 56, 28, "79aef5a9cadbb611640805bb2b5959d1808f993138282d99d42583545066e160"},
		{"table3", false, 56, 7, "141ff93a7ac94c0c0c1aee236619b85fdcab4f7d2a8cab73f89548a6f4629d74"},
		{"table3", true, 56, 7, "84a8d060bfe6733cd2e97ca921377b4135d61e5ff1cc97e7e032df1e47730670"},
		{"ablation", false, 56, 8, "b9cc233b56c471c3eb41d880debf56f16b4b121b12bfb0bf98113b8a2eadb295"},
		{"ablation", true, 56, 8, "7f4ff1bdd799155518fd86ae60de6227a636b1fedd14f1f0d59d2708a3ba80f1"},
		{"granularity", false, 56, 14, "fbc61a9a07a8faa81915d4801fc0267486750bfd45221928650a72ecae951950"},
		{"granularity", true, 56, 8, "b8864d3c2ca02cf6243d927a618c8cadf20e9c52ecaf2f10523d173b8cd0d292"},
	} {
		_, jobs, err := (&runConfig{quick: c.quick, mixes: c.mixes, seed: 1}).figureSpec(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keys := make([]string, len(jobs))
		for i, j := range jobs {
			keys[i] = j.Key
		}
		sort.Strings(keys)
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:]); len(jobs) != c.jobs || got != c.sum {
			t.Errorf("%s (quick %v, mixes %d): %d jobs, keys %s; want %d, %s", c.name, c.quick, c.mixes, len(jobs), got, c.jobs, c.sum)
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
	failing := func(label string) campaign.Runner {
		return func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
			if strings.Contains(j.Label, label) {
				return stats.RunRecord{}, nil, errors.New("injected failure")
			}
			return instant(ctx, j)
		}
	}
	for _, tc := range []struct {
		exp, fail string
		want      []string // rows that must appear
	}{
		// A failed baseline blanks its mix's row but not the other mix,
		// and the AVG covers the rows that have a figure.
		{"fig8", "Packet-VC4/mix:AMMP+BLACKSCHOLES/", []string{
			"BLACKSCHOLES/AMMP           n/a    n/a    n/a     n/a    n/a    n/a     n/a    n/a    n/a",
			"LPS/GAFORT                 0.0%   0.0%   0.0%   1.000  1.000  1.000   1.000  1.000  1.000",
			"AVG (geomean)              0.0%   0.0%   0.0%   1.000  1.000  1.000   1.000  1.000  1.000"}},
		// A failed variant blanks its own column only.
		{"fig8", "Hybrid-TDM-hop-VC4/mix:GAFORT+LPS/", []string{
			"LPS/GAFORT                 0.0%    n/a   0.0%   1.000    n/a  1.000   1.000    n/a  1.000"}},
		{"fig9", "Packet-VC4/mix:AMMP+HOTSPOT/", []string{"HOTSPOT        n/a", "BLACKSCHOLES   dyn: buffer 100.0%->100.0%"}},
		{"table3", "mix:EQUAKE+LIB/", []string{
			"LIB                  0.20 ->    n/a        34.4 ->   n/a",
			"LPS                  0.20 ->  0.001        55.0 ->  50.0"}},
		{"fig5", "base", []string{"    0.05                n/a                n/a"}},
		// Every baseline failed: no saturation load, so no throughput
		// gain and no energy sample.
		{"fig6", "base", []string{" 8x8  UR : max throughput 0.000 -> 0.100 (n/a), energy saving at 75% load: n/a"}},
		{"ablation", "Packet-VC4", []string{"full hybrid                     0.0        n/a"}},
		{"granularity", "/s64/", []string{"TDM-64-slots            0.0        n/a", "TDM-16-slots            0.0       0.0%"}},
	} {
		code, out, errOut := experimentsWith(failing(tc.fail), "-exp", tc.exp, "-quick", "-mixes", "2", "-workers", "2")
		if code != 1 {
			t.Errorf("%s with %s failing: exit %d, want 1", tc.exp, tc.fail, code)
		}
		if !strings.Contains(errOut, "failed: injected failure") || !strings.Contains(errOut, tc.fail) {
			t.Errorf("%s: stderr does not name the failed job %s:\n%s", tc.exp, tc.fail, errOut)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s with %s failing: output lacks %q:\n%s", tc.exp, tc.fail, want, out)
			}
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s with %s failing printed NaN/Inf:\n%s", tc.exp, tc.fail, out)
		}
	}
}

const (
	table3Spec    = "../../scenarios/table3.json"
	fig4Policy    = "../../scenarios/fig4_policy.json"
	fig4QuickSpec = "../../examples/specs/fig4-quick.json"
)

// TestSpecRowsAndResume runs a plain spec twice against one record
// store. The value columns (all but the label) were printed by the
// sweep command's -spec before it folded into this one. The second run
// is served entirely from the store, prints the same bytes and leaves
// the store file as it was.
func TestSpecRowsAndResume(t *testing.T) {
	store := filepath.Join(t.TempDir(), "table3.jsonl")
	code, out, errOut := experiments("-spec", table3Spec, "-results", store, "-workers", "2")
	if code != 0 || errOut != "experiments: 7 jobs, 0 served from cache, 0 failed\n" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	want := `label,offered,accepted,payload_accepted,net_latency,total_latency,cs_fraction,energy_pj
Hybrid-TDM/mix:EQUAKE+BLACKSCHOLES/6x6/seed1,0.000,0.2216,0.3657,22.23,56.71,0.3420,1780563
Hybrid-TDM/mix:EQUAKE+HOTSPOT/6x6/seed1,0.000,0.1048,0.1684,20.35,33.99,0.2648,1188365
Hybrid-TDM/mix:EQUAKE+LIB/6x6/seed1,0.000,0.2877,0.4652,34.20,59.77,0.1986,2250500
Hybrid-TDM/mix:EQUAKE+LPS/6x6/seed1,0.000,0.2503,0.4087,24.09,54.79,0.3065,1939398
Hybrid-TDM/mix:EQUAKE+NN/6x6/seed1,0.000,0.2886,0.4763,38.20,77.92,0.2152,2239384
Hybrid-TDM/mix:EQUAKE+PATHFINDER/6x6/seed1,0.000,0.1588,0.2630,19.62,48.15,0.3689,1432711
Hybrid-TDM/mix:EQUAKE+STO/6x6/seed1,0.000,0.0643,0.0997,22.51,25.80,0.0756,988427
`
	if out != want {
		t.Errorf("table3 spec printed\n%s\nwant\n%s", out, want)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}

	code, again, errOut := experiments("-spec", table3Spec, "-results", store, "-workers", "2")
	if code != 0 || errOut != "experiments: 7 jobs, 7 served from cache, 0 failed\n" {
		t.Fatalf("cached re-run: exit %d, stderr %q", code, errOut)
	}
	if again != out {
		t.Errorf("cached re-run printed\n%s\nfirst run\n%s", again, out)
	}
	if after, _ := os.ReadFile(store); !bytes.Equal(after, before) {
		t.Error("the cached re-run rewrote the record store")
	}
}

// TestSpecPolicyLoop: a policy_profile spec prints the policy
// comparison, anchored on a static row with zero delta, and the greedy
// demand-budget policy improves energy per flit on every grid point.
// Its stderr line counts both waves' jobs: two profiling runs and six
// re-runs, greedy's a duplicate of threshold's (the same decision).
func TestSpecPolicyLoop(t *testing.T) {
	code, out, errOut := experiments("-spec", fig4Policy, "-workers", "2")
	if code != 0 || errOut != "experiments: 8 jobs, 2 served from cache, 0 failed\n" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "label,policy,pins,base_energy_per_flit_pj,energy_per_flit_pj,energy_delta_pct,base_latency,latency,latency_delta_pct,throughput" {
		t.Fatalf("header %q", lines[0])
	}
	greedy := 0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		switch f[1] {
		case "static":
			if f[5] != "+0.00" {
				t.Errorf("static row has energy delta %s: %s", f[5], line)
			}
		case "greedy":
			greedy++
			if d, err := strconv.ParseFloat(f[5], 64); err != nil || d >= 0 {
				t.Errorf("greedy does not improve energy per flit: %s", line)
			}
		}
	}
	if greedy != 2 {
		t.Errorf("%d greedy rows, want 2:\n%s", greedy, out)
	}
}

// TestResultsServeFiguresUnderTheirOwnLabels: fig5 and fig4 share job
// keys under different labels, so fig4 served from a store fig5 filled
// must still print its own labels — byte-identical to a storeless run.
func TestResultsServeFiguresUnderTheirOwnLabels(t *testing.T) {
	store := filepath.Join(t.TempDir(), "figs.jsonl")
	if code, _, errOut := experimentsWith(instant, "-exp", "fig5", "-quick", "-results", store); code != 0 {
		t.Fatalf("fig5: exit %d, stderr %q", code, errOut)
	}
	_, cached, _ := experimentsWith(instant, "-exp", "fig4", "-quick", "-results", store)
	_, fresh, _ := experimentsWith(instant, "-exp", "fig4", "-quick")
	if cached != fresh || !strings.Contains(fresh, "Packet-VC4 ") {
		t.Errorf("fig4 from fig5's store printed\n%s\nwithout a store\n%s", cached, fresh)
	}
}

// TestAllRunsEachKeyOnce: figures share job keys (fig5's grid is
// fig4's), and one invocation simulates each key once.
func TestAllRunsEachKeyOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	counting := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		mu.Lock()
		runs[j.Key]++
		mu.Unlock()
		return instant(ctx, j)
	}
	if code, _, errOut := experimentsWith(counting, "-exp", "all", "-quick", "-workers", "2"); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for key, n := range runs {
		if n > 1 {
			t.Errorf("job %s ran %d times", key, n)
		}
	}
	t.Logf("%d unique keys", len(runs))
}

// TestSpecOnFleet submits specs to an in-process coordinator with one
// worker, behind a front that refuses the first submit with 429 and
// Retry-After: 1. The client waits the advertised second, resubmits, and
// prints the output of a local run byte for byte — failures included:
// one labelled job of the plain spec fails, and so do a policy study's
// re-run of one grid point and the profiling run of another, and one
// mix of Table III, a figure submitted as its committed spec. A failed
// job leaves no record on the fleet, so the rows it feeds print n/a and
// the command exits 1, exactly as locally.
func TestSpecOnFleet(t *testing.T) {
	store, err := campaign.OpenShardedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := fleet.NewCoordinator(fleet.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Register(mux)
	var refused atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/fleet/campaigns" && refused.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	// The policy study (4x4) simulates, since its decisions read the
	// profiling runs' flow tables; the plain grid (6x6) runs instantly.
	policySpec := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(policySpec, []byte(`{"modes":["tdm"],"patterns":["tornado"],
		"meshes":[{"width":4,"height":4}],"rates":[0.15],"seeds":[1,2],
		"warmup_cycles":300,"measure_cycles":1200,"policy_profile":{"policies":["static","greedy"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fail := map[string]bool{
		"Hybrid-TDM/TOR/6x6/r0.150/seed1":               true,
		"Hybrid-TDM/TOR/4x4/r0.150/seed1/policy=greedy": true,
		"Hybrid-TDM/TOR/4x4/r0.150/seed2/profile":       true,
		"Hybrid-TDM/mix:EQUAKE+LIB/6x6/seed1":           true,
	}
	runner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		switch {
		case fail[j.Label]:
			return stats.RunRecord{}, nil, errors.New("injected failure")
		case j.Config.Width == 4:
			return campaign.Simulate(ctx, j)
		}
		return instant(ctx, j)
	}

	worker, err := fleet.NewWorker(fleet.WorkerOptions{Coordinator: srv.URL, Name: "w1", Workers: 2,
		PollInterval: 10 * time.Millisecond, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); worker.Run(ctx) }()
	defer func() { cancel(); <-stopped }()

	// fig6 submits its batches one by one, the second per mesh from the
	// first's saturation load; table1 simulates nothing. Neither meets
	// an injected failure.
	for i, tc := range []struct {
		args           []string
		code, rows, na int
	}{
		{[]string{"-spec", fig4QuickSpec}, 1, 24, 1},
		{[]string{"-spec", policySpec}, 1, 4, 3},
		{[]string{"-exp", "table3", "-quick"}, 1, 9, 1},
		{[]string{"-exp", "fig6", "-quick"}, 0, 7, 0},
		{[]string{"-exp", "table1"}, 0, 5, 0},
	} {
		start := time.Now()
		code, out, errOut := experimentsWith(runner, append(tc.args, "-fleet", srv.URL)...)
		if code != tc.code || strings.Contains(errOut, "failed: ") != (tc.code == 1) {
			t.Fatalf("%v on the fleet: exit %d, stderr:\n%s", tc.args, code, errOut)
		}
		if i == 0 && (!strings.Contains(errOut, "coordinator busy (429), retrying in 1s") || time.Since(start) < time.Second) {
			t.Errorf("the 429's Retry-After was not honoured (%v); stderr:\n%s", time.Since(start), errOut)
		}
		code, local, errOut := experimentsWith(runner, tc.args...)
		if code != tc.code {
			t.Fatalf("%v locally: exit %d, stderr %q", tc.args, code, errOut)
		}
		if out != local || strings.Count(out, "\n") != tc.rows+1 || strings.Count(out, "n/a\n") != tc.na {
			t.Errorf("%v: fleet output\n%s\nlocal output\n%s", tc.args, out, local)
		}
	}
}

// TestSpecBadInvocationsExitTwo: a flag the chosen mode cannot honour,
// or a spec that cannot run, is refused before anything is opened.
func TestSpecBadInvocationsExitTwo(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "never.jsonl")
	badSpec := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"modes":["tdm"],"patterns":["tornado"],"rates":[0.1],"cycles":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const url = "http://127.0.0.1:1"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", table3Spec, "-exp", "table3"}, "-exp shapes a built-in experiment"},
		{[]string{"-spec", table3Spec, "-quick"}, "-quick shapes a built-in experiment"},
		{[]string{"-spec", table3Spec, "-mixes", "4"}, "-mixes shapes a built-in experiment"},
		{[]string{"-spec", table3Spec, "-seed", "2"}, "-seed shapes a built-in experiment"},
		{[]string{"-spec", table3Spec, "-fleet", url, "-results", results}, "-results persists local runs"},
		{[]string{"-spec", filepath.Join(dir, "missing.json")}, "missing.json"},
		{[]string{"-spec", badSpec}, `unknown field "cycles"`},
	} {
		code, out, errOut := experiments(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 mentioning %q", tc.args, code, out, errOut, tc.want)
		}
	}
	if _, err := os.Stat(results); !os.IsNotExist(err) {
		t.Errorf("a refused invocation created %s", results)
	}
}
