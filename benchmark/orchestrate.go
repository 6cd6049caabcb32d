package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// childRun is what one fresh child process reported for one workload.
type childRun struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Exit      int         `json:"exit_status"`
	Refused   bool        `json:"refused,omitempty"`
	Seconds   float64     `json:"child_seconds"`
	Result    *resultLine `json:"result,omitempty"`
	Prov      *provenance `json:"provenance,omitempty"`
	Problems  []string    `json:"problems,omitempty"`
	StderrEnd string      `json:"stderr_tail,omitempty"`
}

// spawn runs one workload in a fresh child of this binary — heap
// history changes set-up time several-fold, so no two workloads share a
// process — and parses what it printed.
func spawn(root string, opt options, workload string, seed uint64, trace bool) childRun {
	run := childRun{Workload: workload, Seed: seed}
	exe, err := os.Executable()
	if err != nil {
		run.Exit, run.Problems = -1, []string{err.Error()}
		return run
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
		"-out", opt.outDir, fmt.Sprintf("-trace=%v", trace)}
	if opt.check {
		args = append(args, "-check")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.MultiWriter(&stderr, os.Stderr)
	start := time.Now()
	err = cmd.Run()
	run.Seconds = time.Since(start).Seconds()
	if err != nil {
		run.Exit = -1
		if ee, ok := err.(*exec.ExitError); ok {
			run.Exit = ee.ExitCode()
		}
		run.Refused = run.Exit == 3
		tail := strings.TrimSpace(stderr.String())
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		run.StderrEnd = tail
		return run
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var head struct {
			Prov     *provenance `json:"provenance"`
			Problems []string    `json:"problems"`
		}
		if json.Unmarshal(line, &head) == nil && head.Prov != nil {
			run.Prov, run.Problems = head.Prov, head.Problems
		}
		last = line
	}
	var res resultLine
	dec := json.NewDecoder(bytes.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		run.Exit = -1
		run.Problems = append(run.Problems, fmt.Sprintf("last line is not a result: %v", err))
		return run
	}
	run.Result = &res
	return run
}

// report is the orchestrator's output document.
type report struct {
	Provenance provenance `json:"provenance"`
	Runs       []childRun `json:"runs"`
	Traced     []childRun `json:"traced_runs,omitempty"`
}

// orchestrate runs every workload (each in its own child), prints every
// metric by name with its unit as one JSON document, and stores it
// under the output directory. It exits non-zero when any workload
// failed its gate or could not be measured.
func orchestrate(root string, opt options, stdout io.Writer) int {
	if opt.aa {
		return runAA(root, opt, stdout)
	}
	rep := report{Provenance: collectProvenance(root, opt.seed, opt.seconds)}
	status := 0
	for _, w := range workloads {
		run := spawn(root, opt, w.def.Name, opt.seed, false)
		rep.Runs = append(rep.Runs, run)
		if run.Prov != nil {
			rep.Provenance.BuildS += run.Prov.BuildS
		}
		if run.Result == nil || !run.Result.Correct {
			status = 1
		}
		if opt.trace {
			run := spawn(root, opt, w.def.Name, opt.seed, true)
			rep.Traced = append(rep.Traced, run)
			if run.Result == nil || !run.Result.Correct {
				status = 1
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		logf("%v", err)
		return 1
	}
	if err := writeJSON(filepath.Join(opt.outDir, "results.json"), rep); err != nil {
		logf("%v", err)
		return 1
	}
	return status
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// aaRow is one (workload, end-to-end metric) line of the A/A table.
type aaRow struct {
	Workload, Metric string
	Bound            float64
	Median           [2]float64
	Spread           [2]float64
	Worse            float64 // second median against the first, positive = worse
	OK               bool
}

// runAA is the driver's acceptance procedure run at home: two sets of
// -runs seeds per workload on the same tree, the workload order
// reversed between the sets. A metric passes when the second median is
// not worse than the first by more than its bound and (setup_s aside,
// and only with enough runs for quartiles) each set's interquartile
// spread stays within the bound. With -runs 1 the two single values
// must agree within the bound in either direction.
func runAA(root string, opt options, stdout io.Writer) int {
	values := map[string][2][]float64{} // "workload/metric" -> per set
	broken := []string{}
	for set := 0; set < 2; set++ {
		order := append([]workload(nil), workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for r := 0; r < opt.runs; r++ {
				run := spawn(root, opt, w.def.Name, opt.seed+uint64(r), false)
				if run.Result == nil || !run.Result.Correct {
					broken = append(broken, fmt.Sprintf("%s seed %d set %d: exit %d %v %s", w.def.Name, run.Seed, set+1, run.Exit, run.Problems, run.StderrEnd))
					continue
				}
				for name, m := range run.Result.Metrics {
					key := w.def.Name + "/" + name
					v := values[key]
					v[set] = append(v[set], m.Value)
					values[key] = v
				}
			}
		}
	}
	var rows []aaRow
	ok := len(broken) == 0
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			v := values[w.def.Name+"/"+d.Name]
			row := aaRow{Workload: w.def.Name, Metric: d.Name, Bound: d.Bound}
			if len(v[0]) == 0 || len(v[1]) == 0 {
				rows = append(rows, row)
				ok = false
				continue
			}
			for s := 0; s < 2; s++ {
				row.Median[s] = median(v[s])
				row.Spread[s] = spread(v[s])
			}
			row.Worse = worsening(row.Median[0], row.Median[1], d.Better)
			row.OK = row.Worse <= d.Bound
			if opt.runs == 1 {
				row.OK = row.Worse <= d.Bound && row.Worse >= -d.Bound
			}
			if opt.runs >= 4 && d.Name != "setup_s" && (row.Spread[0] > d.Bound || row.Spread[1] > d.Bound) {
				row.OK = false
			}
			ok = ok && row.OK
			rows = append(rows, row)
		}
	}
	var md bytes.Buffer
	writeAATable(&md, rows, broken, collectProvenance(root, opt.seed, opt.seconds), opt.runs)
	if _, err := stdout.Write(md.Bytes()); err != nil {
		logf("%v", err)
		return 1
	}
	if !opt.smoke {
		if err := os.WriteFile(filepath.Join(root, "benchmark", "AA.md"), md.Bytes(), 0o644); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func writeAATable(w io.Writer, rows []aaRow, broken []string, p provenance, runs int) {
	fmt.Fprintf(w, "# A/A: two sets of runs of the same tree\n\n")
	fmt.Fprintf(w, "Written by `go run ./benchmark -aa -runs %d -seed %d` (workload order reversed between the sets).\n", runs, p.Seed)
	fmt.Fprintf(w, "Revision %s, %s, GOMAXPROCS %d, NumCPU %d, host %s, %v sizing-seconds per run.\n\n",
		p.GitRev, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.Hostname, p.Seconds)
	fmt.Fprintf(w, "`spread` is the interquartile distance of a set's values over their median (Python's\n`statistics.quantiles(v, n=4)`); `worse` is the second median against the first, positive = worse.\n\n")
	fmt.Fprintf(w, "| workload | metric | median 1 | spread 1 | median 2 | spread 2 | worse | bound | ok |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		verdict := "yes"
		if !r.OK {
			verdict = "**NO**"
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.2f%% | %.6g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
			r.Workload, r.Metric, r.Median[0], 100*r.Spread[0], r.Median[1], 100*r.Spread[1], 100*r.Worse, 100*r.Bound, verdict)
	}
	if len(broken) > 0 {
		fmt.Fprintf(w, "\nRuns that failed or could not be measured:\n\n")
		for _, b := range broken {
			fmt.Fprintf(w, "- %s\n", b)
		}
	}
}
