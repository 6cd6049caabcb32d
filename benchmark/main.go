// Command benchmark is the repository's one benchmark: five verified
// workloads, four end-to-end metrics each, per-layer probes and a
// traced pass. BENCHMARK.json at the module root is its contract with
// the driver; README.md in this directory explains every choice.
//
//	go run ./benchmark -seed 1                       # all workloads, each in a fresh child process
//	go run ./benchmark -seed 1 -trace                # plus the traced pass and per-layer metrics
//	go run ./benchmark -seed 1 -aa -runs 10          # two sets of ten seeds; writes benchmark/AA.md
//	go run ./benchmark -workload hetero6x6 -seed 1 -seconds 15 -trace 0   # what the driver runs
//
// A single-workload run prints one JSON object as its last line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} — end-to-end
// metrics with -trace 0, per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// normalizeArgs lets -trace be both the bare boolean the ISSUE
// describes and the "--trace 0|1" pair the driver appends: Go's flag
// package stops at the value of a boolean flag given as its own
// argument, so the pair is folded into -trace=0|1 first.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	check    bool
	smoke    bool
	aa       bool
	runs     int
	outDir   string
}

func run(args []string, stdout io.Writer) int {
	var opt options
	var emitContract bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "run only this workload, in this process (the driver's mode)")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: equal seeds give equal inputs")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "sizing: the measured region takes about this long on the reference host")
	fs.BoolVar(&opt.trace, "trace", false, "run the traced pass and print the per-layer metrics")
	fs.BoolVar(&opt.check, "check", false, "full-strength correctness gate (2000-cycle prefixes on every config, whole spec re-simulated)")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny sizes, for tests")
	fs.BoolVar(&opt.aa, "aa", false, "run every workload twice on this tree and fail if any end-to-end metric moves past its bound")
	fs.IntVar(&opt.runs, "runs", 1, "with -aa: seeds per workload and set")
	fs.StringVar(&opt.outDir, "out", "", "directory for results and traces (default <root>/benchmark/out)")
	fs.BoolVar(&emitContract, "emit-contract", false, "print BENCHMARK.json as the metric registries define it and exit")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		logf("unexpected arguments %v", fs.Args())
		return 2
	}
	if emitContract {
		c := buildContract()
		if err := c.validate(); err != nil {
			logf("%v", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if opt.seconds <= 0 || opt.runs < 1 {
		logf("-seconds and -runs must be positive")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		logf("%v", err)
		return 1
	}
	if opt.outDir == "" {
		opt.outDir = filepath.Join(root, "benchmark", "out")
	}
	if opt.workload != "" {
		return runSingle(root, opt, stdout)
	}
	return orchestrate(root, opt, stdout)
}

// runSingle is the driver's mode: one workload in this (fresh) process.
func runSingle(root string, opt options, stdout io.Writer) int {
	w, ok := workloadByName(opt.workload)
	if !ok {
		logf("unknown workload %q", opt.workload)
		return 2
	}
	if reason := w.refuse(); reason != "" {
		// Refuse rather than emit a cell the host cannot measure.
		logf("refusing %s: %s", w.def.Name, reason)
		return 3
	}
	e := &env{root: root, seed: opt.seed, seconds: opt.seconds, smoke: opt.smoke, full: opt.check, setups: w.setups}
	if opt.smoke {
		e.setups = 1
	}

	prov := collectProvenance(root, opt.seed, opt.seconds)
	var res resultLine
	var problems []string
	if !opt.trace {
		o := runPass(w, e)
		problems, prov.BuildS = o.problems, o.buildS
		res = renderResult(o.attempted, o.failed, endToEndDefs, o.endToEnd())
	} else {
		res, problems, prov.BuildS = runTracedPasses(w, e, opt)
	}
	for _, p := range problems {
		logf("FAILED %s: %s", w.def.Name, p)
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"provenance": prov, "workload": w.def.Name, "problems": problems}); err != nil {
		logf("%v", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// runPass runs one pass of a workload; a panic outside any op (set-up,
// the benchmark's own code) fails the whole pass.
func runPass(w workload, e *env) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o.attempted = max(o.attempted, 1)
			o.fail(o.attempted, "%s: panic: %v\n%s", w.def.Name, p, debug.Stack())
		}
	}()
	return w.run(e)
}

// renderResult builds the result line. A failed run withholds its
// metrics: numbers from a run that broke its health or correctness gate
// must not be compared with anything.
func renderResult(attempted, failed int, defs []metricDef, values map[string]float64) resultLine {
	res := resultLine{
		Correct:   failed == 0,
		Attempted: max(attempted, 1),
		Failed:    min(failed, max(attempted, 1)),
		Metrics:   map[string]metricValue{},
	}
	if res.Correct {
		m, err := fillMetrics(defs, values)
		if err != nil {
			panic(err) // a metric was set that the registry does not declare
		}
		res.Metrics = m
	}
	return res
}

// runTracedPasses is -trace 1: the workload untraced and traced at half
// size in this process (their difference is the tracing overhead; the
// spans become a Chrome trace and a self-time table), then the probes.
// End-to-end numbers never come from here.
func runTracedPasses(w workload, e *env, opt options) (res resultLine, problems []string, buildS float64) {
	half := *e
	half.seconds = e.seconds / 2
	half.setups = 1
	untraced := runPass(w, &half)

	debug.FreeOSMemory() // collect the first pass before the second measures
	traced := half
	traced.tr = newTracer()
	o := runPass(w, &traced)

	problems = append(untraced.problems, o.problems...)
	wall := time.Duration(o.wallS * float64(time.Second))
	if err := writeTraceFiles(opt.outDir, w.def.Name, opt.seed, traced.tr.snapshot(), wall); err != nil {
		problems = append(problems, fmt.Sprintf("write trace: %v", err))
	}
	layer, probeProblems := runProbes(e)
	problems = append(problems, probeProblems...)
	for k, v := range untraced.layer {
		layer[k] = v
	}
	for k, v := range o.layer {
		layer[k] = v
	}
	if untraced.wallS > 0 {
		layer["trace_overhead_frac"] = (o.wallS - untraced.wallS) / untraced.wallS
	}
	failed := untraced.failed + o.failed + len(probeProblems)
	if len(problems) > 0 && failed == 0 {
		failed = 1
	}
	return renderResult(o.attempted, failed, perLayerDefs, layer), problems, untraced.buildS + o.buildS
}

// writeTraceFiles writes the pass's spans as Chrome-trace JSON and as a
// self-time table.
func writeTraceFiles(dir, name string, seed uint64, spans []span, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	meta := map[string]string{"workload": name, "seed": fmt.Sprint(seed)}
	if err := write(base+".trace.json", func(w io.Writer) error { return writeChromeTrace(w, spans, meta) }); err != nil {
		return err
	}
	if err := write(base+".selftime.txt", func(w io.Writer) error { return writeSelfTable(w, spans, wall) }); err != nil {
		return err
	}
	logf("%s: %d spans -> %s.trace.json, %s.selftime.txt", name, len(spans), base, base)
	return nil
}
