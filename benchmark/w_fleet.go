package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// fleetShardSize is fleet_cold's jobs per lease (`-shard-size 4`).
const fleetShardSize = 4

type fleetSize struct {
	seeds         int
	warm, measure int
	checkStride   int // the gate re-simulates every checkStride-th job locally
}

func fleetSizeFor(e *env) fleetSize {
	// 216 jobs always, so p95 of the job times keeps ten samples beyond
	// it; the windows scale. 400 simulated cycles per sizing-second and
	// job: at 25 s that is fig4-quick's 2000+8000.
	cycles := int(400 * e.seconds)
	s := fleetSize{seeds: 8, warm: cycles / 5, measure: cycles - cycles/5, checkStride: 9}
	if e.smoke {
		s.seeds, s.warm, s.measure, s.checkStride = 1, 500, 4000, 5
	}
	if e.full {
		s.checkStride = 1
	}
	return s
}

// proc is one nocsimd child.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop asks the child to drain (SIGTERM), kills it if it does not exit
// in time, and always waits for it; the rusage is the child's whole
// life.
func (p *proc) stop() *syscall.Rusage {
	p.cmd.Process.Signal(syscall.SIGTERM) // an error means it already exited; Wait below still reaps it
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	ru, _ := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// cluster is fleet_cold's deployment: one coordinator, two workers.
type cluster struct {
	coord   *proc
	workers []*proc
	url     string
}

func waitHealthy(url string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after %v (last error: %v)", url, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startCluster launches the three processes on an empty data dir and
// returns once every /healthz answers.
func startCluster(bin, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	c := &cluster{url: "http://" + addr(0)}
	var err error
	c.coord, err = startProc(bin, filepath.Join(dir, "coordinator.log"),
		"-coordinator", "-addr", addr(0), "-data", filepath.Join(dir, "coord"),
		"-journal", filepath.Join(dir, "coord", "fleet.journal"),
		"-shard-size", fmt.Sprint(fleetShardSize), "-pprof=false")
	if err != nil {
		return nil, err
	}
	for k := 1; k <= 2; k++ {
		w, err := startProc(bin, filepath.Join(dir, fmt.Sprintf("worker%d.log", k)),
			"-worker", c.url, "-addr", addr(k), "-workers", "1",
			"-data", filepath.Join(dir, fmt.Sprintf("worker%d", k)), "-pprof=false")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	for i := range ports {
		if err := waitHealthy("http://"+addr(i), 20*time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop drains and reaps every process; workers first, so the
// coordinator outlives their last completion.
func (c *cluster) stop() (coord *syscall.Rusage, workers []*syscall.Rusage) {
	for _, w := range c.workers {
		workers = append(workers, w.stop())
	}
	if c.coord != nil {
		coord = c.coord.stop()
	}
	return coord, workers
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// campaignRun is what driving one campaign through the wire protocol
// produced.
type campaignRun struct {
	jobs      []campaign.Job
	recs      []campaign.Record
	summary   []byte
	resBytes  int
	submitToS float64 // submit accepted -> summary served
	wallS     float64 // submit sent -> results fetched
}

// expandSpec builds the job list the benchmark checks records against.
// It is the last step of both fleet workloads' set-up: set-up ends when
// the services answer and the first job could be submitted.
func expandSpec(e *env, spec campaign.Spec) ([]campaign.Job, error) {
	sp := e.tr.begin("Spec.Expand", 0, -1, -1)
	defer e.tr.end(sp)
	return spec.Expand()
}

// driveCampaign is the user's path: submit, poll, fetch summary and
// results.
func driveCampaign(o *outcome, c *fleetClient, spec campaign.Spec, jobs []campaign.Job, poll time.Duration) (campaignRun, bool) {
	run := campaignRun{jobs: jobs}
	start := time.Now()
	sub, err := c.submit(spec)
	if err != nil {
		o.fail(o.attempted, "submit: %v", err)
		return run, false
	}
	accepted := time.Now()
	if sub.Jobs != len(jobs) {
		o.fail(o.attempted, "submit: coordinator expanded %d jobs, the spec has %d", sub.Jobs, len(jobs))
		return run, false
	}
	if _, err := c.waitDone(sub.ID, poll, 150*time.Second); err != nil {
		o.fail(o.attempted, "poll: %v", err)
		return run, false
	}
	run.summary, err = c.summary(sub.ID)
	if err != nil {
		o.fail(o.attempted, "summary: %v", err)
		return run, false
	}
	run.submitToS = time.Since(accepted).Seconds()
	run.recs, run.resBytes, err = c.results(sub.ID)
	if err != nil {
		o.fail(o.attempted, "results: %v", err)
		return run, false
	}
	run.wallS = time.Since(start).Seconds()
	return run, true
}

// gateFleet is fleet_cold's correctness gate: the served summary must
// be byte-identical to campaign.Aggregate over the served records, and
// every checkStride-th job, re-simulated here on an in-process Engine,
// must produce a byte-identical record. With -check the stride is 1:
// the whole spec runs in-process, as the ISSUE words it.
func gateFleet(e *env, o *outcome, run campaignRun, stride int) {
	want, err := summaryJSON(campaign.Aggregate(run.recs, campaign.GroupWithoutSeed))
	if err != nil {
		o.fail(1, "fleet gate: %v", err)
		return
	}
	if !bytes.Equal(want, run.summary) {
		o.fail(1, "fleet gate: /summary (%d bytes) differs from campaign.Aggregate over /results (%d bytes)", len(run.summary), len(want))
	}
	var sample []campaign.Job
	var at []int
	for i := 0; i < len(run.jobs); i += stride {
		sample = append(sample, run.jobs[i])
		at = append(at, i)
	}
	sp := e.tr.begin("Engine.Run", 0, -1, -1)
	local := campaign.New(campaign.Options{Workers: 2}).Run(context.Background(), sample)
	e.tr.end(sp)
	bad := 0
	for k, rec := range local {
		a, errA := json.Marshal(rec)
		b, errB := json.Marshal(run.recs[at[k]])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			bad++
		}
	}
	if bad > 0 {
		o.fail(bad, "fleet gate: %d of %d re-simulated records differ from the fleet's", bad, len(sample))
	}
}

func runFleetCold(e *env) outcome {
	size := fleetSizeFor(e)
	spec := fleetSpec(e.seed, size.seeds, size.warm, size.measure)
	var o outcome
	o.attempted = spec.Jobs()
	dir, err := scratchDir(e.root, "fleet_cold")
	if err != nil {
		o.fail(o.attempted, "fleet_cold: %v", err)
		return o
	}
	defer os.RemoveAll(dir)
	if e.tr != nil {
		runFleetInproc(e, &o, spec, dir, size.checkStride)
	} else {
		runFleetProcs(e, &o, spec, dir, size.checkStride)
	}
	return o
}

// runFleetProcs is the measured variant: real nocsimd processes.
func runFleetProcs(e *env, o *outcome, spec campaign.Spec, dir string, checkStride int) {
	bin, secs, err := buildNocsimd(e.root)
	if err != nil {
		o.fail(o.attempted, "%v", err)
		return
	}
	o.buildS = secs

	var built *cluster
	var jobs []campaign.Job
	n := 0
	su := setups{fn: func() (func(), error) {
		n++
		c, err := startCluster(bin, dataDir(dir, n))
		if err != nil {
			return nil, err
		}
		if jobs, err = expandSpec(e, spec); err != nil {
			c.stop()
			return nil, err
		}
		built = c
		return func() { c.stop() }, nil
	}}
	if err := su.first(e.setups); err != nil {
		o.fail(o.attempted, "fleet_cold: set-up: %v", err)
		return
	}
	cl := built
	lat := newSamples()
	client := newFleetClient(cl.url, lat, nil)
	run, ok := driveCampaign(o, client, spec, jobs, 100*time.Millisecond)
	var expired float64
	if ok {
		if expired, err = client.counter("fleet_leases_expired_total"); err != nil {
			o.fail(1, "fleet_cold: %v", err)
		}
	}
	coordRU, workerRU := cl.stop()
	if err := su.again(4); err != nil { // four more clusters, ~15 s after the first ones
		o.fail(1, "fleet_cold: set-up sample: %v", err)
	}
	o.setupS = su.center()
	if !ok {
		return
	}
	o.wallS = run.wallS
	o.work = float64(len(run.recs))
	o.workS = run.submitToS
	var workerCPU float64
	for _, ru := range append([]*syscall.Rusage{coordRU}, workerRU...) {
		if ru != nil {
			o.rssMB += float64(ru.Maxrss) / 1024
		}
	}
	for _, ru := range workerRU {
		workerCPU += cpuSeconds(ru)
	}
	o.set("nocsimd.ready_ms", 1e3*o.setupS)
	o.set("nocsimd.submit_rtt_ms", 1e3*mean(lat.get("client:submit")))
	o.set("nocsimd.status_rtt_ms", 1e3*mean(lat.get("client:status")))
	o.set("nocsimd.summary_rtt_ms", 1e3*mean(lat.get("client:summary")))
	if s := lat.sum("client:results"); s > 0 {
		o.set("nocsimd.results_mb_per_s", float64(run.resBytes)/1e6/s)
	}
	o.set("nocsimd.coord_cpu_s", cpuSeconds(coordRU))
	o.set("nocsimd.worker_cpu_s", workerCPU)
	logf("fleet_cold: %d jobs in %.2f s, worker busy share %.2f", len(run.recs), run.wallS, workerCPU/(2*run.wallS))

	checkRecords(o, "fleet_cold", run.jobs, run.recs)
	if expired != 0 {
		o.fail(1, "fleet_cold: health: leases_expired_total = %v", expired)
	}
	gateFleet(e, o, run, checkStride)
}

// runFleetInproc is the traced variant: the same coordinator and
// workers hosted in this process, so Runner and handler spans are
// reachable.
func runFleetInproc(e *env, o *outcome, spec campaign.Spec, dir string, checkStride int) {
	lat := newSamples()
	index := map[string]int{} // job key -> op id; filled in set-up, before any worker runs
	runner := func(k int, shard func() int) campaign.Runner {
		return func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
			sp := e.tr.begin("Runner:"+modeToken(j.Config.Mode), k, index[j.Key], shard())
			start := time.Now()
			rec, sum, err := campaign.Simulate(ctx, j)
			d := time.Since(start).Seconds()
			e.tr.end(sp)
			lat.add("job", d)
			lat.add("sim:"+modeToken(j.Config.Mode), d)
			return rec, sum, err
		}
	}
	// One set-up: the traced pass reports no setup_s.
	start := time.Now()
	fl, err := openInproc(dataDir(dir, 1), fleetShardSize, lat, e.tr)
	if err != nil {
		o.fail(o.attempted, "fleet_cold: set-up: %v", err)
		return
	}
	jobs, err := expandSpec(e, spec)
	if err != nil {
		fl.close()
		o.fail(o.attempted, "fleet_cold: set-up: %v", err)
		return
	}
	for i, j := range jobs {
		index[j.Key] = i
	}
	stopWorkers, err := startWorkers(fl.url, 2, 500*time.Millisecond, runner, lat, e.tr)
	if err != nil {
		fl.close()
		o.fail(o.attempted, "fleet_cold: set-up: %v", err)
		return
	}
	o.setupS = time.Since(start).Seconds()
	m0 := mallocs()
	run, ok := driveCampaign(o, newFleetClient(fl.url, lat, e.tr), spec, jobs, 100*time.Millisecond)
	allocs := mallocs() - m0
	stopWorkers()
	m := fl.coord.Metrics()
	if err := fl.close(); err != nil {
		o.fail(1, "fleet_cold: close: %v", err)
	}
	if !ok {
		return
	}
	o.wallS = run.wallS
	o.rssMB = selfRSSMB()
	o.work = float64(len(run.recs))
	o.workS = run.submitToS

	jobMS := scale(lat.get("job"), 1e3)
	o.set("campaign.job_ms_p50", median(jobMS))
	if hasTail(len(jobMS), 95) {
		o.set("campaign.job_ms_p95", percentile(jobMS, 95))
	}
	for _, mode := range []string{"packet", "tdm", "sdm"} {
		o.set("campaign.simulate_ms_p50."+mode, median(scale(lat.get("sim:"+mode), 1e3)))
	}
	if run.submitToS > 0 {
		o.set("campaign.engine_overhead_frac", 1-lat.sum("job")/(2*run.submitToS))
	}
	cycles := float64(len(run.recs)) * float64(spec.WarmupCycles+spec.MeasureCycles)
	o.set("flit.allocs_per_kcycle", 1000*float64(allocs)/cycles)
	fleetLayer(o, lat, m, len(run.recs), spec.NumShards(fleetShardSize))
	o.set("fleet.summary_ms", 1e3*mean(lat.get("client:summary")))

	checkRecords(o, "fleet_cold", run.jobs, run.recs)
	if m.LeasesExpired != 0 {
		o.fail(1, "fleet_cold: health: leases_expired_total = %d", m.LeasesExpired)
	}
	gateFleet(e, o, run, checkStride)
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
