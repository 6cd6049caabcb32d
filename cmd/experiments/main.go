// Command experiments runs simulation campaigns: the tables and figures
// of the paper's evaluation, or any campaign spec file.
//
//	experiments -exp fig4          load-latency curves (Section IV-B)
//	experiments -exp fig5          energy saving vs injection rate (IV-C)
//	experiments -exp fig6          scalability to 8x8 / 16x16 (IV-D)
//	experiments -exp fig8          heterogeneous workload mixes (V-B)
//	experiments -exp fig9          energy breakdown (V-B)
//	experiments -exp table1        router parameters / area (IV-A)
//	experiments -exp table3        GPU injection + CS fraction (V-B)
//	experiments -exp ablation      one design choice changed at a time
//	experiments -exp granularity   slot-table size sweep (II-C)
//	experiments -exp all           everything above
//
// A figure is a committed spec (package scenarios): -exp NAME runs
// full/NAME.json, or with -quick the CI-sized NAME.json, and prints its
// records as the paper's table. -seed replaces the spec's seeds and
// -mixes N evenly subsamples the 56 workload mixes of fig8. fig6 builds
// two batches per mesh, the second from the first's saturation load,
// and runs each like a spec, so it too runs on a -fleet coordinator;
// table1 runs nothing.
//
//	experiments -spec scenarios/table3.json -results table3.jsonl
//	experiments -spec scenarios/fig4_policy.json -results policy.jsonl
//	experiments -spec grid.json -fleet http://localhost:8080
//	experiments -exp fig8 -quick -fleet http://localhost:8080
//
// -spec runs the grid of a campaign spec file — the same file nocsimd
// and the fleet accept — and prints one CSV row per job, in the spec's
// expansion order (a Section V mix reports offered load 0: its
// benchmarks, not a rate, generate the traffic). A policy_profile spec
// runs its two waves (profile, then re-run under each policy) and
// prints the policy-comparison CSV instead. With -fleet a spec or
// figure (each of fig6's batches) is submitted to a fleet coordinator
// rather than simulated locally; the output is the same.
//
// A cell that needs a failed job prints n/a; the exit code is then 1.
// A job key that two figures (or a spec's two waves) share is simulated
// once per invocation. With -results the records persist to a JSONL
// store, so an interrupted or repeated run resumes from the finished
// jobs instead of recomputing them.
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
	"sync"

	"tdmnoc/internal/campaign"
)

// runConfig is one invocation: the flags, where output goes, and how
// jobs run.
type runConfig struct {
	quick   bool
	mixes   int
	seed    uint64
	workers int
	// fleet is the -fleet coordinator URL ("" = simulate locally).
	fleet string

	stdout, stderr io.Writer
	// runner executes jobs (nil = campaign.Simulate); tests substitute
	// one to make chosen jobs fail.
	runner campaign.Runner
	// store is the -results record store, or else an in-memory one,
	// shared by every local batch of the invocation.
	store campaign.ResultStore
	// failed is set once any job of any experiment has failed.
	failed bool
}

// printer formats a spec's records, given in RunSpec's order.
type printer func(rc *runConfig, spec campaign.Spec, jobs []campaign.Job, recs []campaign.Record)

// figures are the spec-backed experiments; local ones build their
// batches in code. all runs both kinds in this order.
var (
	figures = map[string]printer{"fig4": fig4, "fig5": fig5, "fig8": fig8, "fig9": fig9,
		"table3": table3, "ablation": ablation, "granularity": granularity}
	local = map[string]func(*runConfig){"table1": table1, "fig6": fig6}
	all   = []string{"table1", "fig4", "fig5", "fig6", "fig8", "fig9", "table3", "ablation", "granularity"}
)

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
	fs.BoolVar(&rc.quick, "quick", false, "run a figure's CI-sized spec (fewer cycles, sparser sweeps)")
	fs.IntVar(&rc.mixes, "mixes", 56, "evenly subsample fig8's workload mixes to this many (max 56)")
	fs.Uint64Var(&rc.seed, "seed", 1, "simulation seed")
	fs.IntVar(&rc.workers, "workers", 0, "parallel experiment runs (0 = NumCPU)")
	specPath := fs.String("spec", "", "run the campaign spec in this JSON file instead of an experiment (e.g. scenarios/table3.json, or a policy_profile spec such as scenarios/fig4_policy.json)")
	results := fs.String("results", "", "persist records to this JSONL file (enables resume and caching)")
	fs.StringVar(&rc.fleet, "fleet", "", "submit the -spec or figure to this fleet coordinator URL instead of simulating locally")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(rc.stderr, "experiments: "+format+"\n", a...)
		return 2
	}

	// Every experiment becomes a step; every refusal happens before
	// anything is opened or run.
	var steps []func()
	if *specPath != "" {
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
		spec, err := readSpec(*specPath, false)
		if err != nil {
			return bad("%v", err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			return bad("%s: %v", *specPath, err)
		}
		steps = append(steps, func() {
			recs := rc.runSpec(spec, jobs, printSpec)
			if rc.fleet == "" {
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
		})
	} else {
		names := []string{*exp}
		if *exp == "all" {
			names = all
		}
		for _, name := range names {
			switch {
			case figures[name] != nil:
				spec, jobs, err := rc.figureSpec(name)
				if err != nil {
					return bad("%s: %v", name, err)
				}
				steps = append(steps, func() { rc.runSpec(spec, jobs, figures[name]) })
			case local[name] != nil:
				steps = append(steps, func() { local[name](rc) })
			default:
				fmt.Fprintf(rc.stderr, "unknown experiment %q\n", *exp)
				return 2
			}
		}
	}
	if rc.fleet != "" && *results != "" {
		return bad("-results persists local runs; the fleet coordinator keeps its own store")
	}

	rc.store = &memStore{recs: map[string]campaign.Record{}}
	if *results != "" {
		store, err := campaign.OpenStore(*results)
		if err != nil {
			fmt.Fprintln(rc.stderr, err)
			return 1
		}
		defer store.Close()
		rc.store = store
	}
	for _, step := range steps {
		step()
	}
	if rc.failed {
		return 1
	}
	return 0
}

// runSpec runs a normalized spec's grid on the -fleet coordinator or the
// local campaign engine, reports each failed grid job (a policy study's
// printer reports its outcomes), and hands the records to print, if any.
func (rc *runConfig) runSpec(spec campaign.Spec, jobs []campaign.Job, print printer) []campaign.Record {
	var recs []campaign.Record
	if rc.fleet != "" {
		var err error
		if recs, err = runOnFleet(rc.stderr, rc.fleet, spec, jobs); err != nil {
			fmt.Fprintf(rc.stderr, "experiments: %v\n", err)
			rc.failed = true
			return nil
		}
	} else {
		o := campaign.Options{Workers: rc.workers, Runner: rc.runner, Store: rc.store}
		recs = campaign.New(o).RunSpec(context.Background(), spec, jobs)
	}
	if spec.PolicyProfile == nil {
		for i, rec := range recs {
			if rec.Err != "" {
				rc.fail(jobs[i].Label, rec.Err)
			}
		}
	}
	if print != nil {
		print(rc, spec, jobs, recs)
	}
	return recs
}

// memStore is the record store of an invocation without -results.
type memStore struct {
	mu   sync.Mutex
	recs map[string]campaign.Record
}

func (m *memStore) Lookup(key string) (campaign.Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[key]
	r.Cached = ok
	return r, ok
}

// Append keeps a record; the engine appends only successes.
func (m *memStore) Append(r campaign.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[r.Key] = r
	return nil
}

func (rc *runConfig) printf(format string, a ...any) { fmt.Fprintf(rc.stdout, format, a...) }
func (rc *runConfig) println(a ...any)               { fmt.Fprintln(rc.stdout, a...) }

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
