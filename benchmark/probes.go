package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/flit"
	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/network"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// The probes time calls into one layer's public functions on small
// fixed inputs. They are the same on every workload (only the seed
// varies), cost ~10 s together, and add nothing inside the program.

// probeSink keeps probe results live so the compiler cannot drop the
// measured calls.
var probeSink int

// runProbes fills every workload-independent per-layer metric.
func runProbes(e *env) (map[string]float64, []string) {
	out := map[string]float64{}
	var problems []string
	for _, p := range []struct {
		name string
		fn   func(e *env, out map[string]float64) error
	}{
		{"construction", probeConstruction},
		{"executor", probeExecutor},
		{"idle network", probeIdleNetwork},
		{"router and slot tables", probeRouter},
		{"hybrid tables", probeHybridTables},
		{"traffic generator", probeTraffic},
		{"flit pool", probeFlitPool},
		{"sdm", probeSDM},
		{"obs", probeObs},
		{"invariant checker", probeInvariant},
		{"campaign", probeCampaign},
		{"fleet coordinator", probeFleet},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					problems = append(problems, fmt.Sprintf("probe %s: panic: %v", p.name, r))
				}
			}()
			if err := p.fn(e, out); err != nil {
				problems = append(problems, fmt.Sprintf("probe %s: %v", p.name, err))
			}
		}()
	}
	return out, problems
}

// probeScale shortens the probes under -smoke.
func probeScale(e *env, n int) int {
	if e.smoke {
		return max(n/20, 1)
	}
	return n
}

// timeSim returns host nanoseconds per router-cycle of warm+measure
// cycles on a freshly built simulator, and the measured results.
func timeSim(cfg hsnoc.Config, pat hsnoc.Pattern, rate float64, warm, measure int) (float64, hsnoc.Results, hsnoc.Diagnostics) {
	s := hsnoc.NewSynthetic(cfg, pat, rate)
	defer s.Close()
	start := time.Now()
	s.Warmup(warm)
	res := s.Run(measure)
	ns := float64(time.Since(start).Nanoseconds())
	return ns / float64((warm+measure)*cfg.Width*cfg.Height), res, s.Diagnose()
}

func probeConstruction(e *env, out map[string]float64) error {
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		s := hsnoc.NewSynthetic(tracedConfig(e.seed), hsnoc.Tornado, 0.20)
		ms = append(ms, 1e3*time.Since(start).Seconds())
		s.Close()
	}
	out["hsnoc.new_ms.6x6"] = median(ms)
	return nil
}

type nopTicker struct{}

func (nopTicker) Tick(sim.Cycle, sim.Phase) {}

// probeExecutor measures dispatch plus the three barrier rendezvous per
// cycle over no-op tickers, then the serial/Workers=2 ratio on the
// mesh32_par2 network (whose construction is hsnoc.new_ms.32x32).
func probeExecutor(e *env, out map[string]float64) error {
	tickers := make([]sim.Ticker, 2048)
	for i := range tickers {
		tickers[i] = nopTicker{}
	}
	steps := probeScale(e, 20000)
	for _, w := range []int{1, 2} {
		var clock sim.Clock
		ex := sim.NewExecutor(&clock, tickers, w)
		start := time.Now()
		ex.Run(steps)
		out[fmt.Sprintf("sim.empty_step_ns.w%d", w)] = float64(time.Since(start).Nanoseconds()) / float64(steps)
		ex.Close()
	}

	warm, measure := probeScale(e, 200), probeScale(e, 600)
	var nsPerCycle [2]float64
	for i, w := range []int{1, 2} {
		cfg := meshConfig(e.seed)
		cfg.Workers = w
		start := time.Now()
		s := hsnoc.NewSynthetic(cfg, hsnoc.UniformRandom, meshRate)
		if w == 2 {
			out["hsnoc.new_ms.32x32"] = 1e3 * time.Since(start).Seconds()
		}
		s.Warmup(warm)
		start = time.Now()
		s.Run(measure)
		nsPerCycle[i] = float64(time.Since(start).Nanoseconds()) / float64(measure)
		s.Close()
	}
	if nsPerCycle[1] > 0 {
		out["sim.speedup_w2"] = nsPerCycle[0] / nsPerCycle[1]
	}
	return nil
}

// probeIdleNetwork runs a 32x32 network with no endpoints: the active
// scheduler's skip path, then the fixed Router.Tick+NI.Tick cost with
// AlwaysTick.
func probeIdleNetwork(e *env, out map[string]float64) error {
	for _, always := range []bool{false, true} {
		nc := network.DefaultConfig(32, 32)
		nc.Seed = e.seed
		nc.AlwaysTick = always
		n := network.New(nc, nil)
		cycles := probeScale(e, 20000)
		name := "network.idle_skip_ns_per_router_cycle"
		if always {
			cycles = probeScale(e, 2000)
			name = "network.idle_tick_ns_per_router_cycle"
		}
		n.Run(64) // settle: first ticks arm and quiesce every node
		start := time.Now()
		n.Run(cycles)
		out[name] = float64(time.Since(start).Nanoseconds()) / float64(cycles*1024)
		n.Close()
	}
	return nil
}

// probeRouter times the 6x6 pipeline under tornado 0.20 packet-switched
// and Hybrid-TDM-hop (order alternated, median of three pairs) and
// reads the modelled counters off the hybrid run: exact repeats for a
// seed, so a simulator-speed change must leave them identical.
func probeRouter(e *env, out map[string]float64) error {
	warm, measure := probeScale(e, 2000), probeScale(e, 20000)
	ps := hsnoc.DefaultConfig(6, 6)
	ps.Seed = e.seed
	tdm := tracedConfig(e.seed)
	var psNS, tdmNS []float64
	var res hsnoc.Results
	var diag hsnoc.Diagnostics
	for rep := 0; rep < 3; rep++ {
		for k := 0; k < 2; k++ {
			if (rep+k)%2 == 0 {
				ns, _, _ := timeSim(ps, hsnoc.Tornado, 0.20, warm, measure)
				psNS = append(psNS, ns)
			} else {
				var ns float64
				ns, res, diag = timeSim(tdm, hsnoc.Tornado, 0.20, warm, measure)
				tdmNS = append(tdmNS, ns)
			}
		}
	}
	out["router.ps_ns_per_router_cycle"] = median(psNS)
	out["hybrid.tdm_extra_ns_per_router_cycle"] = median(tdmNS) - median(psNS)
	out["hybrid.cs_flit_frac"] = res.CSFlitFraction
	out["hybrid.circuits_established"] = float64(res.CircuitsEstablished)
	out["hybrid.config_traffic_frac"] = res.ConfigTrafficFraction
	out["hybrid.hitchhikes"] = float64(res.Hitchhikes)
	out["hybrid.vicinity_rides"] = float64(res.VicinityRides)
	out["hybrid.stolen_slots"] = float64(diag.StolenSlots)
	out["hybrid.dropped_cs"] = float64(diag.DroppedCS)
	out["hybrid.misrouted_cs"] = float64(diag.MisroutedCS)
	return nil
}

// probeHybridTables calls RouterTables and DLT directly.
func probeHybridTables(e *env, out map[string]float64) error {
	rt := hybrid.NewRouterTables(128, 128)
	for slot := 0; slot < 128; slot += 8 {
		rt.Reserve(topology.West, topology.East, slot, 4, 0)
	}
	n := probeScale(e, 2_000_000)
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := rt.Lookup(topology.West, int64(i)); ok {
			hits++
		}
	}
	out["hybrid.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	n = probeScale(e, 500_000)
	start = time.Now()
	for i := 0; i < n; i++ {
		// Grace windows keep a released slot unbookable for a while, so
		// advance time well past them between pairs.
		now := int64(i) * 1024
		if rt.Reserve(topology.North, topology.South, 4, 4, now) {
			hits++
			rt.Release(topology.North, 4, 4, now+8)
		}
	}
	out["hybrid.reserve_release_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	dlt := hybrid.NewDLT(8)
	for d := 0; d < 8; d++ {
		dlt.Update(topology.NodeID(d*4), d, 4, topology.West)
	}
	n = probeScale(e, 2_000_000)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, ok := dlt.Find(topology.NodeID(i & 31)); ok {
			hits++
		}
	}
	out["hybrid.dlt_find_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	probeSink += hits
	if hits == 0 {
		return fmt.Errorf("no lookup, reservation or DLT find ever succeeded")
	}
	return nil
}

// timedEndpoint wraps a traffic generator and accumulates the host time
// spent inside its Tick (generator plus the NI.Send it makes).
type timedEndpoint struct {
	inner network.Endpoint
	total *time.Duration
	calls *int64
}

func (t timedEndpoint) Tick(now sim.Cycle, ni *network.NI) {
	start := time.Now()
	t.inner.Tick(now, ni)
	*t.total += time.Since(start)
	*t.calls++
}

func (t timedEndpoint) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {
	t.inner.OnDeliver(now, ni, pkt)
}

func probeTraffic(e *env, out map[string]float64) error {
	nc := network.HybridTDMConfig(6, 6)
	nc.Seed = e.seed
	nc.PoolMessages = true
	var total time.Duration
	var calls int64
	n := network.New(nc, func(topology.NodeID) network.Endpoint {
		return timedEndpoint{traffic.NewSynthetic(traffic.Tornado, 0.20, nc.PSDataFlits, true), &total, &calls}
	})
	n.Run(probeScale(e, 20000))
	n.Close()
	// The clock pair itself costs time inside the measured interval.
	const pairs = 200_000
	var empty time.Duration
	for i := 0; i < pairs; i++ {
		t := time.Now()
		empty += time.Since(t)
	}
	if calls == 0 {
		return fmt.Errorf("no endpoint tick ran")
	}
	out["traffic.tick_ns_per_node_cycle"] = float64(total.Nanoseconds())/float64(calls) - float64(empty.Nanoseconds())/pairs
	return nil
}

func probeFlitPool(e *env, out map[string]float64) error {
	pool := flit.NewPool(nil, 36)
	pool.Put(pool.Get())
	n := probeScale(e, 5_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		pool.Put(pool.Get())
	}
	out["flit.pool_get_put_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	return nil
}

func probeSDM(e *env, out map[string]float64) error {
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridSDM
	cfg.Seed = e.seed
	ns, _, _ := timeSim(cfg, hsnoc.Tornado, 0.15, probeScale(e, 1000), probeScale(e, 10000))
	out["sdm.ns_per_router_cycle"] = ns
	return nil
}

// probeObs pairs traced and untraced 6x6 runs (order alternated,
// median of the paired ratios) and times Handle.Emit on its own.
func probeObs(e *env, out map[string]float64) error {
	warm, measure := probeScale(e, 1000), probeScale(e, 10000)
	cfg := tracedConfig(e.seed)
	run := func(traced bool) (float64, error) {
		s := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, 0.20)
		defer s.Close()
		if traced {
			if _, err := s.AttachTelemetry(hsnoc.TelemetryOptions{KindMask: obs.ProfileFlows, RingSample: 4}); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		s.Warmup(warm)
		s.Run(measure)
		return time.Since(start).Seconds(), nil
	}
	var ratios []float64
	for rep := 0; rep < 4; rep++ {
		var t [2]float64
		for k := 0; k < 2; k++ {
			traced := (rep+k)%2 == 1
			d, err := run(traced)
			if err != nil {
				return err
			}
			if traced {
				t[1] = d
			} else {
				t[0] = d
			}
		}
		ratios = append(ratios, t[1]/t[0])
	}
	out["obs.traced_overhead_frac"] = median(ratios) - 1

	rec := obs.NewRecorder(obs.RecorderConfig{Nodes: 36, RingCapacity: 1 << 16})
	h := rec.Handle(0)
	n := probeScale(e, 5_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Emit(obs.Event{Cycle: int64(i), Kind: obs.KindLinkTraverse, Node: int32(i % 36), Pkt: uint64(i)})
	}
	out["obs.emit_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	probeSink += int(rec.Events() & 1)
	return nil
}

func probeInvariant(e *env, out map[string]float64) error {
	cycles := probeScale(e, 5000)
	cfg := tracedConfig(e.seed)
	plain, _, _ := timeSim(cfg, hsnoc.Tornado, 0.20, 0, cycles)
	cfg.CheckInvariants = true
	cfg.CheckInterval = 1
	checked, _, _ := timeSim(cfg, hsnoc.Tornado, 0.20, 0, cycles)
	out["invariant.checked_slowdown_x"] = checked / plain
	return nil
}

// probeRecords builds healthy records for a spec's jobs without
// simulating.
func probeRecords(jobs []campaign.Job) []campaign.Record {
	recs := make([]campaign.Record, len(jobs))
	for i, j := range jobs {
		res, _, _ := instantRunner(context.Background(), j) // never fails
		recs[i] = campaign.Record{
			Key: j.Key, Label: j.Label, Mode: j.Config.Mode.String(), Pattern: j.PatternName,
			Width: j.Config.Width, Height: j.Config.Height, Slots: j.Config.SlotTableEntries,
			Rate: j.Rate, Seed: j.Config.Seed, Warmup: j.Warmup, Measure: j.Measure, Result: res,
		}
	}
	return recs
}

// probeCampaign times spec expansion at ctrl_plane's reference size and
// the two result stores' write and read sides.
func probeCampaign(e *env, out map[string]float64) error {
	big := fleetSpec(e.seed, probeScale(e, 320), 2000, 8000)
	start := time.Now()
	jobs, err := big.Expand()
	if err != nil {
		return err
	}
	out["campaign.expand_us_per_job"] = 1e6 * time.Since(start).Seconds() / float64(len(jobs))
	start = time.Now()
	shard, err := big.ShardJobs(big.NumShards(ctrlShardSize)/2, ctrlShardSize)
	if err != nil {
		return err
	}
	out["campaign.shardjobs_ms.8640"] = 1e3 * time.Since(start).Seconds()
	probeSink += len(shard)

	dir, err := scratchDir(e.root, "probe-campaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jobs = jobs[:min(len(jobs), 2000)]
	recs := probeRecords(jobs)
	n := float64(len(recs))

	path := filepath.Join(dir, "store.jsonl")
	st, err := campaign.OpenStore(path)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			st.Close()
			return err
		}
	}
	out["campaign.store_append_us"] = 1e6 * time.Since(start).Seconds() / n
	if err := st.Close(); err != nil {
		return err
	}
	start = time.Now()
	st, err = campaign.OpenStore(path)
	if err != nil {
		return err
	}
	out["campaign.store_open_ms_per_krecord"] = 1e3 * time.Since(start).Seconds() / (n / 1000)
	defer st.Close()

	eng := campaign.New(campaign.Options{Workers: 2, Store: st, Runner: instantRunner})
	start = time.Now()
	hit := eng.Run(context.Background(), jobs)
	out["campaign.cache_hit_jobs_per_s"] = n / time.Since(start).Seconds()
	if got := eng.Status().CacheHits; got != int64(len(jobs)) {
		return fmt.Errorf("warm store served %d of %d jobs from cache", got, len(jobs))
	}

	start = time.Now()
	agg := campaign.Aggregate(hit, campaign.GroupWithoutSeed)
	out["campaign.aggregate_us_per_record"] = 1e6 * time.Since(start).Seconds() / n
	probeSink += len(agg)

	ss, err := campaign.OpenShardedStore(filepath.Join(dir, "sharded"))
	if err != nil {
		return err
	}
	defer ss.Close()
	start = time.Now()
	for _, r := range recs {
		if _, err := ss.Append(r); err != nil {
			return err
		}
	}
	out["campaign.shardstore_append_us"] = 1e6 * time.Since(start).Seconds() / n
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key
	}
	start = time.Now()
	found, missing := ss.LookupAll(keys)
	out["campaign.shardstore_lookupall_us_per_key"] = 1e6 * time.Since(start).Seconds() / n
	if missing != 0 || len(found) != len(keys) {
		return fmt.Errorf("sharded store lost %d of %d records", missing, len(keys))
	}
	return nil
}

// probeFleet calls the coordinator directly, no HTTP: one submit, then
// lease and complete for every shard.
func probeFleet(e *env, out map[string]float64) error {
	dir, err := scratchDir(e.root, "probe-fleet")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.OpenShardedStore(filepath.Join(dir, "fleet"))
	if err != nil {
		return err
	}
	defer store.Close()
	coord, err := fleet.NewCoordinator(fleet.Options{
		Store: store, ShardSize: ctrlShardSize, Journal: filepath.Join(dir, "fleet.journal"),
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	spec := fleetSpec(e.seed, probeScale(e, 32), 2000, 8000)
	start := time.Now()
	sub, err := coord.Submit(fleet.SubmitRequest{Tenant: "probe", Spec: spec})
	if err != nil {
		return err
	}
	out["fleet.submit_ms"] = 1e3 * time.Since(start).Seconds()

	var leaseS, completeS float64
	records := 0
	for i := 0; i < sub.Shards; i++ {
		start = time.Now()
		lease, ok := coord.Lease("probe")
		leaseS += time.Since(start).Seconds()
		if !ok {
			return fmt.Errorf("lease %d of %d refused", i+1, sub.Shards)
		}
		jobs, err := lease.Spec.ShardJobs(lease.Shard.Index, lease.Shard.Size)
		if err != nil {
			return err
		}
		recs := probeRecords(jobs)
		start = time.Now()
		if _, err := coord.Complete(lease.LeaseID, recs); err != nil {
			return err
		}
		completeS += time.Since(start).Seconds()
		records += len(recs)
	}
	coord.WaitCompactions()
	out["fleet.lease_us"] = 1e6 * leaseS / float64(sub.Shards)
	out["fleet.complete_us_per_record"] = 1e6 * completeS / float64(records)
	return nil
}
