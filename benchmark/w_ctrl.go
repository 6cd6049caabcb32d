package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

// ctrlShardSize is ctrl_plane's jobs per lease (the coordinator default).
const ctrlShardSize = 16

type ctrlSize struct{ seeds int }

func ctrlSizeFor(e *env) ctrlSize {
	// 27 grid points x seeds jobs; 18 seeds per sizing-second (7 290 jobs
	// at 15 s) is ~1 host second at the ~500 jobs/s the reference sandbox
	// sustains in its slow phases (README, "Sizing").
	s := ctrlSize{seeds: int(18 * e.seconds)}
	if e.smoke {
		s.seeds = 8
	}
	return s
}

// dataDir is the n-th set-up's data directory: each repeat starts on an
// empty one.
func dataDir(dir string, n int) string { return filepath.Join(dir, fmt.Sprintf("data%d", n)) }

// fleetLayer files what both fleet workloads read off an in-process
// coordinator: handler time, round-trip time and journal cost.
func fleetLayer(o *outcome, lat *samples, m fleet.Metrics, jobs, shards int) {
	o.set("fleet.handler_lease_us", 1e6*mean(lat.get("handler:lease")))
	o.set("fleet.handler_complete_us", 1e6*mean(lat.get("handler:complete")))
	o.set("fleet.http_lease_rtt_us", 1e6*mean(lat.get("rtt:lease")))
	o.set("fleet.http_complete_rtt_us", 1e6*mean(lat.get("rtt:complete")))
	if shards > 0 {
		o.set("fleet.journal_syncs_per_shard", float64(m.JournalSyncs)/float64(shards))
	}
	if jobs > 0 {
		o.set("fleet.journal_bytes_per_job", float64(m.JournalSizeBytes)/float64(jobs))
	}
	o.set("fleet.records_duplicate", float64(m.RecordsDuplicate))
}

func runCtrlPlane(e *env) outcome {
	size := ctrlSizeFor(e)
	// The windows only label the jobs: instantRunner simulates nothing.
	spec := fleetSpec(e.seed, size.seeds, 2000, 8000)
	var o outcome
	o.attempted = spec.Jobs()
	dir, err := scratchDir(e.root, "ctrl_plane")
	if err != nil {
		o.fail(o.attempted, "ctrl_plane: %v", err)
		return o
	}
	defer os.RemoveAll(dir)

	lat := newSamples()
	var built *inproc
	var jobs []campaign.Job
	n := 0
	su := setups{fn: func() (func(), error) {
		n++
		p, err := openInproc(dataDir(dir, n), ctrlShardSize, lat, e.tr)
		if err != nil {
			return nil, err
		}
		if jobs, err = expandSpec(e, spec); err != nil {
			p.close()
			return nil, err
		}
		built = p
		return func() { p.close() }, nil
	}}
	if err := su.first(e.setups); err != nil {
		o.fail(o.attempted, "ctrl_plane: set-up: %v", err)
		return o
	}
	fl, data := built, dataDir(dir, n)

	// The measured region runs from here to the second summary: write
	// side (submit, leases, completions), then the read side below.
	start := time.Now()
	stopWorkers, err := startWorkers(fl.url, 2, 5*time.Millisecond,
		func(int, func() int) campaign.Runner { return instantRunner }, lat, e.tr)
	if err != nil {
		fl.close()
		o.fail(o.attempted, "ctrl_plane: %v", err)
		return o
	}
	run, ok := driveCampaign(&o, newFleetClient(fl.url, lat, e.tr), spec, jobs, 20*time.Millisecond)
	stopWorkers()
	m := fl.coord.Metrics()
	if err := fl.close(); err != nil {
		o.fail(1, "ctrl_plane: close: %v", err)
	}
	if !ok {
		return o
	}
	shards := spec.NumShards(ctrlShardSize)
	fleetLayer(&o, lat, m, len(run.recs), shards)

	// Read side: re-open on the same journal and store, resubmit (every
	// shard must fast-complete from the store), fetch the summary again.
	t0 := time.Now()
	fl, err = openInproc(data, ctrlShardSize, lat, e.tr)
	if err != nil {
		o.fail(o.attempted, "ctrl_plane: re-open: %v", err)
		return o
	}
	o.set("fleet.reopen_ms", 1e3*time.Since(t0).Seconds())
	client := newFleetClient(fl.url, newSamples(), e.tr)
	t0 = time.Now()
	sub, err := client.submit(spec)
	o.set("fleet.resubmit_ms", 1e3*time.Since(t0).Seconds())
	var again []byte
	if err == nil {
		t0 = time.Now()
		again, err = client.summary(sub.ID)
		o.set("fleet.summary_ms", 1e3*time.Since(t0).Seconds())
	}
	o.wallS = time.Since(start).Seconds()
	o.rssMB = selfRSSMB()
	o.work = float64(len(run.recs))
	o.workS = o.wallS
	if cerr := fl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		o.fail(o.attempted, "ctrl_plane: resubmit: %v", err)
		return o
	}
	if err := su.again(10); err != nil { // ten more, a run's length after the first ones
		o.fail(1, "ctrl_plane: set-up sample: %v", err)
	}
	o.setupS = su.center()

	checkRecords(&o, "ctrl_plane", run.jobs, run.recs)
	if m.LeasesExpired != 0 {
		o.fail(1, "ctrl_plane: health: leases_expired_total = %d", m.LeasesExpired)
	}
	if sub.CachedShards != sub.Shards || sub.Shards != shards {
		o.fail(1, "ctrl_plane: resubmit cached %d of %d shards (spec has %d)", sub.CachedShards, sub.Shards, shards)
	}
	if !bytes.Equal(again, run.summary) {
		o.fail(1, "ctrl_plane: summary after re-open differs from the one served before it")
	}
	logf("ctrl_plane: %d jobs, %d shards, %.0f jobs/s, %d journal syncs", len(run.recs), shards, o.work/o.workS, m.JournalSyncs)
	return o
}
