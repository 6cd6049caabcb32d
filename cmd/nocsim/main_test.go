package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
)

func TestParseMode(t *testing.T) {
	cases := map[string]hsnoc.Mode{
		"packet": hsnoc.PacketSwitched, "PS": hsnoc.PacketSwitched, "Packet-VC4": hsnoc.PacketSwitched,
		"tdm": hsnoc.HybridTDM, "Hybrid-TDM": hsnoc.HybridTDM,
		"sdm": hsnoc.HybridSDM,
	}
	for in, want := range cases {
		got, err := campaign.ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = (%v,%v), want %v", in, got, err, want)
		}
	}
	if _, err := campaign.ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// TestValidatePolicyFlags: -policy is resolved before anything runs; a
// spec no policy parses, sdm mode, which has no flow profiler for the
// profiling pass, and a decision whose re-run hsnoc.Check refuses for
// the workload are refused.
func TestValidatePolicyFlags(t *testing.T) {
	tdm, packet, sdm := hsnoc.DefaultConfig(6, 6), hsnoc.DefaultConfig(6, 6), hsnoc.DefaultConfig(6, 6)
	tdm.Mode, packet.Mode, sdm.Mode = hsnoc.HybridTDM, hsnoc.PacketSwitched, hsnoc.HybridSDM
	synthetic := hsnoc.Synthetic{Pattern: hsnoc.Tornado, Rate: 0.15}
	mix := hsnoc.Mix{CPU: "EQUAKE", GPU: "BLACKSCHOLES"}
	replay := hsnoc.Replay{Trace: trace.Synthesize(hsnoc.Transpose, topology.NewMesh(6, 6), 0.1, 5, 500, 1)}
	for _, c := range []struct {
		policy string
		cfg    hsnoc.Config
		w      hsnoc.Workload
		want   string // the policy's name, or "" for none
	}{
		{"", tdm, synthetic, ""},             // no policy
		{"", sdm, synthetic, ""},             // sdm without a policy
		{"greedy", tdm, synthetic, "greedy"}, // profile, then re-run
		{"threshold:8", tdm, mix, "threshold"},
		{"static", packet, synthetic, "static"},     // decides nothing, so fits any base
		{"sdm-gate", tdm, synthetic, "sdm-gate"},    // cross-architecture re-run
		{"sdm-gate", packet, synthetic, "sdm-gate"}, // likewise from a packet base
		{"greedy", tdm, replay, "greedy"},           // a replay re-runs on tdm
	} {
		pol, err := validatePolicyFlags(c.policy, c.cfg, c.w)
		if err != nil {
			t.Errorf("-policy %q on %v %T rejected: %v", c.policy, c.cfg.Mode, c.w, err)
			continue
		}
		got := ""
		if pol != nil {
			got = pol.Name()
		}
		if got != c.want {
			t.Errorf("-policy %q resolved to %q, want %q", c.policy, got, c.want)
		}
	}
	for _, c := range []struct {
		policy string
		cfg    hsnoc.Config
		w      hsnoc.Workload
		want   string
	}{
		{"greedy", sdm, synthetic, "not available for sdm"},
		{"bogus", tdm, synthetic, "unknown policy"},
		{"greedy:x", tdm, synthetic, "bad parameter"},
		{"sdm-gate:2", tdm, synthetic, `"sdm-gate" takes no parameter`}, // the re-run has tablei.SDMPlanes planes
		{"sdm-gate:6", tdm, synthetic, `"sdm-gate" takes no parameter`},
		{"greedy", packet, synthetic, "-policy greedy does not apply to Packet-VC4 mode"},
		{"threshold", packet, mix, "-policy threshold does not apply to Packet-VC4 mode"},
		{"sdm-gate", tdm, mix, "-policy sdm-gate re-runs in Hybrid-SDM mode: hsnoc: hsnoc.Mix workloads run on PacketSwitched and HybridTDM only"},
		{"sdm-gate", packet, replay, "-policy sdm-gate re-runs in Hybrid-SDM mode: hsnoc: hsnoc.Replay workloads run on PacketSwitched and HybridTDM only"},
	} {
		if _, err := validatePolicyFlags(c.policy, c.cfg, c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-policy %q on %v %T: got %v, want an error containing %q", c.policy, c.cfg.Mode, c.w, err, c.want)
		}
	}
}

func TestValidateObsFlags(t *testing.T) {
	cases := []struct {
		name     string
		traceOut string
		every    int
		mode     hsnoc.Mode
		wantErr  string // substring; "" means valid
	}{
		{name: "nothing requested on sdm", mode: hsnoc.HybridSDM},
		{name: "trace on tdm", traceOut: "t.json", mode: hsnoc.HybridTDM},
		{name: "telemetry on packet", every: 64, mode: hsnoc.PacketSwitched},
		{name: "trace on sdm", traceOut: "t.json", mode: hsnoc.HybridSDM, wantErr: "sdm"},
		{name: "telemetry on sdm", every: 64, mode: hsnoc.HybridSDM, wantErr: "sdm"},
		{name: "negative interval", every: -1, mode: hsnoc.HybridTDM, wantErr: "negative"},
	}
	for _, tc := range cases {
		err := validateObsFlags(tc.traceOut, tc.every, tc.mode)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParsePattern(t *testing.T) {
	cases := map[string]hsnoc.Pattern{
		"ur": hsnoc.UniformRandom, "uniform": hsnoc.UniformRandom,
		"tornado": hsnoc.Tornado, "TOR": hsnoc.Tornado,
		"tr": hsnoc.Transpose, "transpose": hsnoc.Transpose,
		"bc": hsnoc.BitComplement, "neighbor": hsnoc.Neighbor,
		"hotspot": hsnoc.Hotspot, "hot": hsnoc.Hotspot,
	}
	for in, want := range cases {
		got, err := campaign.ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = (%v,%v), want %v", in, got, err, want)
		}
	}
	if _, err := campaign.ParsePattern("bogus"); err == nil {
		t.Error("bogus pattern accepted")
	}
}

// nocsim runs the command in-process and returns its exit code and
// output streams.
func nocsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestHeteroRunsTheCommonPath drives every flag the separate -hetero
// path used to reject ("not supported with -hetero") through the one run
// sequence, on a parallel executor where tracing was also once refused.
func TestHeteroRunsTheCommonPath(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	hetero := []string{"-hetero", "-sharing", "-vcgating", "-warmup", "500", "-cycles", "2500"}

	code, out, errOut := nocsim(append(hetero, "-workers", "4", "-check", "-checkevery", "8",
		"-trace-out", tracePath, "-telemetry-every", "256", "-heatmap")...)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{
		"Hybrid-TDM, heterogeneous mix BLACKSCHOLES/EQUAKE, 2500 cycles",
		"delivered packets", "circuits established", // figures the hetero path used to hide
		"CPU instructions", "GPU circuit-switched", "avg CPU / GPU latency",
		"invariants              clean, rolling digest", "packet pool ",
		"router utilisation", "link utilisation", "trace ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("no trace written: %v", err)
	}

	// -policy profiles the mix, then re-runs it, checked, under the
	// decision.
	code, out, errOut = nocsim(append(hetero, "-workers", "2", "-check", "-policy", "greedy")...)
	if code != 0 || !strings.HasPrefix(out, "policy greedy: ") || !strings.Contains(out, "GPU memory operations") ||
		!strings.Contains(out, "invariants              clean") {
		t.Errorf("policy re-run: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	// sdm-gate moves the run to the SDM engine, which has no tile
	// endpoints: refused with that reason, not with a blanket one.
	code, _, errOut = nocsim(append(hetero, "-policy", "sdm-gate")...)
	if code != 2 || !strings.Contains(errOut, "PacketSwitched and HybridTDM only") {
		t.Errorf("sdm-gate on hetero: exit %d, stderr %q", code, errOut)
	}

	code, out, errOut = nocsim(append(hetero, "-adaptive", "512")...)
	if code != 0 || !strings.Contains(out, "adaptive controller") {
		t.Errorf("adaptive: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestBarrierWaitsLineOnlyWhenParallel: a parallel run reports its
// executor's barrier accounting on one line beside the packet pool's; a
// serial run has no barrier and prints no such line.
func TestBarrierWaitsLineOnlyWhenParallel(t *testing.T) {
	line := regexp.MustCompile(`(?m)^  barrier waits +\d+ parks per 1000 cycles, [\d.]+/[\d.]+ ms waited per worker \(simulator speed, not a result\)$`)
	for _, workers := range []string{"1", "2"} {
		code, out, errOut := nocsim("-mode", "tdm", "-pattern", "tornado", "-rate", "0.15", "-width", "4", "-height", "4",
			"-warmup", "200", "-cycles", "800", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\nstderr:\n%s", workers, code, errOut)
		}
		if got, want := line.MatchString(out), workers == "2"; got != want {
			t.Errorf("-workers %s: barrier line present = %v, want %v:\n%s", workers, got, want, out)
		}
	}
}

// TestArenasLine: the arenas line reports the slab bytes by owner, and
// a slot-table entry is one 40-byte row per slot: a 4x4 TDM mesh of
// 128-entry tables holds 16 x 128 x 40 bytes of them.
func TestArenasLine(t *testing.T) {
	code, out, errOut := nocsim("-mode", "tdm", "-pattern", "tornado", "-rate", "0.15", "-width", "4", "-height", "4",
		"-slots", "128", "-warmup", "200", "-cycles", "800")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
	}
	m := regexp.MustCompile(`(?m)^  arenas +(\d+) B slot tables, \d+ B routers, \d+ B NIs \(simulator memory, not a result\)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no arenas line:\n%s", out)
	}
	if want := strconv.Itoa(16 * 128 * 40); m[1] != want {
		t.Errorf("slot tables %s B, want %s", m[1], want)
	}
	if strings.Contains(out, "event rings") {
		t.Errorf("event rings line without a recorder:\n%s", out)
	}
}

// TestBadInvocationsExitTwo: input a user can type must come back as a
// message and exit code 2, never a panic.
func TestBadInvocationsExitTwo(t *testing.T) {
	replayPath := filepath.Join(t.TempDir(), "ok.trace")
	f, err := os.Create(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Synthesize(hsnoc.Transpose, topology.NewMesh(4, 4), 0.1, 5, 500, 1).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-hetero", "-width", "2", "-height", "2"}, "2x2 mesh is too small"},
		{[]string{"-hetero", "-cpu", "NOPE"}, "unknown CPU benchmark"},
		{[]string{"-hetero", "-mode", "sdm"}, "PacketSwitched and HybridTDM only"},
		{[]string{"-mode", "sdm", "-trace-out", "x.json"}, "not available for sdm"},
		{[]string{"-mode", "sdm", "-check"}, "CheckInvariants is not available for HybridSDM"},
		{[]string{"-mode", "sdm", "-policy", "greedy"}, "-policy is not available for sdm"},
		// Known from the mode alone, so refused before the profiling pass.
		{[]string{"-mode", "packet", "-policy", "greedy"}, "-policy greedy does not apply to Packet-VC4 mode"},
		{[]string{"-mode", "packet", "-policy", "threshold"}, "-policy threshold does not apply to Packet-VC4 mode"},
		{[]string{"-hetero", "-policy", "sdm-gate"}, "-policy sdm-gate re-runs in Hybrid-SDM mode: hsnoc: hsnoc.Mix workloads run on PacketSwitched and HybridTDM only"},
		{[]string{"-replay", replayPath, "-policy", "sdm-gate"}, "-policy sdm-gate re-runs in Hybrid-SDM mode: hsnoc: hsnoc.Replay workloads run on PacketSwitched and HybridTDM only"},
		{[]string{"-policy", "warp"}, "unknown policy"},
		{[]string{"-profile-out", "p.json"}, "flag provided but not defined"}, // a profile is no longer a file
		{[]string{"-pattern", "bogus"}, "unknown pattern"},
		{[]string{"-rate", "0", "-packets", "100"}, "zero injection rate"},
		{[]string{"-checkevery", "7"}, "-checkevery does not apply to a run without -check"},
		{[]string{"-adaptive-topk", "3"}, "AdaptiveTopK 3 without AdaptiveEpoch"},
		{[]string{"-replay", "x.trace", "-cycles", "500"}, "-cycles does not apply to -replay"},
		// Every workload refuses the workload flags it would not read.
		{[]string{"-hetero", "-pattern", "bogus", "-rate", "0.9"}, "-pattern does not apply to -hetero"},
		{[]string{"-hetero", "-rate", "0.9"}, "-rate does not apply to -hetero"},
		{[]string{"-pattern", "tornado", "-cpu", "NOPE", "-gpu", "NOPE"}, "-cpu does not apply to synthetic traffic"},
		{[]string{"-gpu", "LPS"}, "-gpu does not apply to synthetic traffic"},
		{[]string{"-replay", replayPath, "-cpu", "NOPE"}, "-cpu does not apply to -replay"},
		{[]string{"-replay", filepath.Join(t.TempDir(), "missing.trace")}, "missing.trace"},
	} {
		code, out, errOut := nocsim(tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 mentioning %q and no output", tc.args, code, out, errOut, tc.want)
		}
	}
}

// number returns the integer captured by pattern's one group in out.
func number(t *testing.T, out, pattern string) int64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output lacks %s:\n%s", pattern, out)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReplayDeliversEveryTraceEvent: -replay takes the mesh from the
// trace, runs it to completion through the common run path (here on a
// parallel, checked executor) and delivers one packet per trace event.
func TestReplayDeliversEveryTraceEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "transpose.trace")
	tr := trace.Synthesize(hsnoc.Transpose, topology.NewMesh(4, 4), 0.2, 5, 3000, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, errOut := nocsim("-replay", path, "-workers", "2", "-check")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if got := number(t, out, `delivered packets\s+(\d+)`); got != int64(len(tr.Events)) {
		t.Errorf("delivered %d packets, the trace holds %d events", got, len(tr.Events))
	}
	for _, want := range []string{fmt.Sprintf("Hybrid-TDM, replay of %s (%d events)", path, len(tr.Events)), "invariants              clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestTraceOutCountsEveryShard: the trace line counts the events of
// every worker shard — the file it reports on merges them all — so the
// count does not depend on -workers. The event rings line reports every
// shard's ring: -workers × 1<<19 events of 40 bytes.
func TestTraceOutCountsEveryShard(t *testing.T) {
	dir := t.TempDir()
	var counts []int64
	for i, w := range []string{"1", "2"} {
		code, out, errOut := nocsim("-width", "4", "-height", "4", "-warmup", "200", "-cycles", "1000",
			"-workers", w, "-trace-out", filepath.Join(dir, w+".json"))
		if code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr %q", w, code, errOut)
		}
		counts = append(counts, number(t, out, `\((\d+) events recorded`))
		if got, want := number(t, out, `(?m)^  event rings +(\d+) B \(simulator memory, not a result\)$`), int64(i+1)<<19*40; got != want {
			t.Errorf("-workers %s: event rings %d B, want %d", w, got, want)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("events recorded: %d at -workers 1, %d at -workers 2", counts[0], counts[1])
	}
}

// TestTraceOutOpenedBeforeTheRun: a -trace-out path that cannot be
// created fails before anything simulates — exit 1 and nothing on
// stdout, with or without a profiling pass. A run that fails after the
// file was opened removes a file it created and leaves one that was
// already there as it was; a run that succeeds replaces that file's
// bytes with exactly the trace.
func TestTraceOutOpenedBeforeTheRun(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "t.json")
	for _, extra := range [][]string{nil, {"-policy", "greedy"}} {
		args := append([]string{"-width", "4", "-height", "4", "-warmup", "200", "-cycles", "1000", "-trace-out", bad}, extra...)
		if code, out, errOut := nocsim(args...); code != 1 || out != "" || !strings.Contains(errOut, bad) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming the path and no output", extra, code, out, errOut)
		}
	}
	fresh := filepath.Join(dir, "fresh.json")
	if code, _, errOut := nocsim("-hetero", "-cpu", "NOPE", "-trace-out", fresh); code != 2 {
		t.Errorf("unknown CPU benchmark: exit %d, stderr %q; want 2", code, errOut)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("a failed run left the trace file it created behind (stat: %v)", err)
	}

	run := []string{"-width", "4", "-height", "4", "-warmup", "200", "-cycles", "1000", "-trace-out"}
	if code, _, errOut := nocsim(append(run, fresh)...); code != 0 {
		t.Fatalf("fresh path: exit %d, stderr %q", code, errOut)
	}
	want, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.json")
	stale := bytes.Repeat([]byte("stale "), len(want)/6+100) // longer than the trace
	if err := os.WriteFile(old, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := nocsim("-hetero", "-cpu", "NOPE", "-trace-out", old); code != 2 {
		t.Errorf("unknown CPU benchmark: exit %d, stderr %q; want 2", code, errOut)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, stale) {
		t.Errorf("a failed run changed a file that was already there (%d bytes, err %v; want %d bytes unchanged)", len(got), err, len(stale))
	}
	if code, _, errOut := nocsim(append(run, old)...); code != 0 {
		t.Fatalf("existing path: exit %d, stderr %q", code, errOut)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, want) {
		t.Errorf("trace over an existing file: %d bytes (err %v), want the %d bytes of a fresh one", len(got), err, len(want))
	}
}
