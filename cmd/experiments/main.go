// Command experiments runs simulation campaigns: the built-in tables
// and figures of the paper's evaluation, or any campaign spec file.
//
//	experiments -exp fig4          load-latency curves (Section IV-B)
//	experiments -exp fig5          energy saving vs injection rate (IV-C)
//	experiments -exp fig6          scalability to 8x8 / 16x16 (IV-D)
//	experiments -exp fig8          heterogeneous workload mixes (V-B)
//	experiments -exp fig9          energy breakdown (V-B)
//	experiments -exp table1        router parameters / area (IV-A)
//	experiments -exp table3        GPU injection + CS fraction (V-B)
//	experiments -exp all           everything above
//
// Use -quick for a shortened run (fewer cycles, sparser sweeps) and
// -mixes N to subsample the 56 workload mixes of fig8.
//
//	experiments -spec scenarios/table3.json -results table3.jsonl
//	experiments -spec scenarios/fig4_policy.json -results policy.jsonl
//	experiments -spec grid.json -fleet http://localhost:8080
//
// -spec runs the grid of a campaign spec file — the same file nocsimd
// and the fleet accept — and prints one CSV row per job, in the spec's
// expansion order (a Section V mix reports offered load 0: its
// benchmarks, not a rate, generate the traffic). A policy_profile spec
// runs its two waves (profile, then re-run under each policy) and
// prints the policy-comparison CSV instead. With -fleet the spec is
// submitted to a fleet coordinator rather than simulated locally; the
// CSV is the same.
//
// Every experiment is a formatter over the campaign engine: it builds a
// []campaign.Job, runs the batch and prints from the records. A cell
// that needs a failed job prints n/a; the exit code is then 1. With
// -results the records persist to a JSONL store, so an interrupted or
// repeated run resumes from the finished jobs instead of recomputing
// them.
//
// Absolute joules are not comparable to the authors' testbed; the point
// of each experiment is the relative shape: who wins, by roughly what
// factor, and where the crossovers fall. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tdmnoc/internal/campaign"
)

// runConfig is one invocation: the flags, where output goes, and how
// jobs run.
type runConfig struct {
	quick   bool
	mixes   int
	seed    uint64
	workers int

	stdout, stderr io.Writer
	// runner executes jobs (nil = campaign.Simulate); tests substitute
	// one to make chosen jobs fail.
	runner campaign.Runner
	// store is the -results record store (nil = in-memory only), shared
	// by every batch of the invocation.
	store *campaign.Store
	// failed is set once any job of any experiment has failed.
	failed bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the process exit code (2 = bad
// invocation, 1 = at least one simulation failed).
func run(args []string, stdout, stderr io.Writer) int {
	return (&runConfig{stdout: stdout, stderr: stderr}).main(args)
}

func (rc *runConfig) main(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(rc.stderr)
	exp := fs.String("exp", "all", "experiment: fig4|fig5|fig6|fig8|fig9|table1|table3|ablation|granularity|all")
	fs.BoolVar(&rc.quick, "quick", false, "shortened runs for smoke testing")
	fs.IntVar(&rc.mixes, "mixes", 56, "workload mixes for fig8/fig9/table3 (max 56)")
	fs.Uint64Var(&rc.seed, "seed", 1, "simulation seed")
	fs.IntVar(&rc.workers, "workers", 0, "parallel experiment runs (0 = NumCPU)")
	specPath := fs.String("spec", "", "run the campaign spec in this JSON file instead of an experiment (e.g. scenarios/table3.json, or a policy_profile spec such as scenarios/fig4_policy.json)")
	results := fs.String("results", "", "persist records to this JSONL file (enables resume and caching)")
	fleetURL := fs.String("fleet", "", "submit the -spec to this fleet coordinator URL instead of simulating locally")
	tenant := fs.String("tenant", "", "tenant name for -fleet submissions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(rc.stderr, "experiments: "+format+"\n", a...)
		return 2
	}

	// Either a built-in experiment list or a spec's jobs; every refusal
	// happens before anything is opened or run.
	var todo []func(*runConfig)
	var spec campaign.Spec
	var jobs []campaign.Job
	if *specPath == "" {
		experiments := map[string][]func(*runConfig){
			"fig4": {fig4}, "fig5": {fig5}, "fig6": {fig6}, "fig8": {fig8}, "fig9": {fig9},
			"table1": {table1}, "table3": {table3}, "ablation": {ablation}, "granularity": {granularity},
			"all": {table1, fig4, fig5, fig6, fig8, fig9, table3, ablation, granularity},
		}
		var ok bool
		if todo, ok = experiments[*exp]; !ok {
			fmt.Fprintf(rc.stderr, "unknown experiment %q\n", *exp)
			return 2
		}
	} else {
		clash := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "quick", "mixes", "seed":
				clash = f.Name
			}
		})
		if clash != "" {
			return bad("-%s shapes a built-in experiment; a -spec file declares its own grid", clash)
		}
		var err error
		if spec, err = readSpec(*specPath); err != nil {
			return bad("%v", err)
		}
		if jobs, err = spec.Expand(); err != nil {
			return bad("%s: %v", *specPath, err)
		}
	}
	switch {
	case *fleetURL != "" && todo != nil:
		return bad("-fleet submits a -spec; the built-in experiments run locally")
	case *fleetURL != "" && *results != "":
		return bad("-results persists local runs; the fleet coordinator keeps its own store")
	}

	if *results != "" {
		store, err := campaign.OpenStore(*results)
		if err != nil {
			fmt.Fprintln(rc.stderr, err)
			return 1
		}
		defer store.Close()
		rc.store = store
	}
	switch {
	case todo != nil:
		for _, experiment := range todo {
			experiment(rc)
		}
	case *fleetURL != "":
		recs, err := runOnFleet(rc.stderr, *fleetURL, *tenant, spec, jobs)
		if err != nil {
			fmt.Fprintf(rc.stderr, "experiments: %v\n", err)
			return 1
		}
		rc.printSpec(spec, jobs, recs)
	default:
		recs := rc.engine().RunSpec(context.Background(), spec, jobs)
		rc.printSpec(spec, jobs, recs)
		cached, failed := 0, 0
		for _, rec := range recs {
			if rec.Err != "" {
				failed++
			} else if rec.Cached {
				cached++
			}
		}
		fmt.Fprintf(rc.stderr, "experiments: %d jobs, %d served from cache, %d failed\n", len(recs), cached, failed)
	}
	if rc.failed {
		return 1
	}
	return 0
}

func (rc *runConfig) printf(format string, a ...any) { fmt.Fprintf(rc.stdout, format, a...) }
func (rc *runConfig) println(a ...any)               { fmt.Fprintln(rc.stdout, a...) }

// engine builds the campaign engine every batch of the invocation runs
// on — the execution path shared with cmd/nocsimd and the fleet.
func (rc *runConfig) engine() *campaign.Engine {
	return campaign.New(campaign.Options{Workers: rc.workers, Runner: rc.runner, Store: rc.store})
}

// run executes a batch and returns one record per job, in job order.
// Failures are reported here, once, for every experiment: the error
// goes to stderr and marks the invocation failed; the formatter then
// sees an empty record. A record served from the store keeps the label
// of the job that first stored it, so each record takes its own job's
// label back: formatters print labels.
func (rc *runConfig) run(jobs []campaign.Job) []campaign.Record {
	recs := rc.engine().Run(context.Background(), jobs)
	for i := range recs {
		recs[i].Label = jobs[i].Label
		if recs[i].Err != "" {
			rc.fail(recs[i].Label, recs[i].Err)
		}
	}
	return recs
}

// fail reports a failed job (or policy outcome) on stderr and marks the
// invocation failed.
func (rc *runConfig) fail(label, err string) {
	fmt.Fprintf(rc.stderr, "experiments: job %s failed: %s\n", label, err)
	rc.failed = true
}

// cell formats one figure of a result table, or "n/a" when the figure
// is undefined: a job it needs failed, or its divisor is zero.
func cell(format string, v float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}
