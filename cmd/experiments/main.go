// Command experiments regenerates every table and figure of the paper's
// evaluation:
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
// Every experiment is a formatter over the campaign engine: it builds a
// []campaign.Job, runs the batch and prints from the records. A cell
// that needs a failed job prints n/a; the exit code is then 1.
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
	if err := fs.Parse(args); err != nil {
		return 2
	}

	experiments := map[string][]func(*runConfig){
		"fig4": {fig4}, "fig5": {fig5}, "fig6": {fig6}, "fig8": {fig8}, "fig9": {fig9},
		"table1": {table1}, "table3": {table3}, "ablation": {ablation}, "granularity": {granularity},
		"all": {table1, fig4, fig5, fig6, fig8, fig9, table3, ablation, granularity},
	}
	todo, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(rc.stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	for _, experiment := range todo {
		experiment(rc)
	}
	if rc.failed {
		return 1
	}
	return 0
}

func (rc *runConfig) printf(format string, a ...any) { fmt.Fprintf(rc.stdout, format, a...) }
func (rc *runConfig) println(a ...any)               { fmt.Fprintln(rc.stdout, a...) }

// run executes a batch on the campaign engine (the execution path
// shared with cmd/sweep, cmd/nocsimd and the fleet) and returns one
// record per job, in job order. Failures are reported here, once, for
// every experiment: the error goes to stderr and marks the invocation
// failed; the formatter then sees an empty record.
func (rc *runConfig) run(jobs []campaign.Job) []campaign.Record {
	eng := campaign.New(campaign.Options{Workers: rc.workers, Runner: rc.runner})
	recs := eng.Run(context.Background(), jobs)
	for _, rec := range recs {
		if rec.Err != "" {
			fmt.Fprintf(rc.stderr, "experiments: job %s failed: %s\n", rec.Label, rec.Err)
			rc.failed = true
		}
	}
	return recs
}

// cell formats one figure of a result table, or "n/a" when the figure
// is undefined: a job it needs failed, or its divisor is zero.
func cell(format string, v float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}
