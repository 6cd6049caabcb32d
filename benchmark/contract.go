package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is the measured length the driver asks of every run; the
// workloads size their fixed work so the measured region takes about
// this long on the 2-core reference sandbox (see README, "Sizing").
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"hetero6x6", "Fig. 8 mixes x {Packet-VC4, Hybrid-TDM-hop-VCt}, serial: router+hybrid+NI+tile models do all the work; executor, campaign, fleet, obs do none"},
	{"mesh32_par2", "one 32x32 Hybrid-TDM mesh, static slot tables, uniform random 0.09, Workers=2: barrier/partition/slab layout work, circuit machinery bypassed (no circuits form)"},
	{"traced6x6", "nocsim's profile, greedy decision, re-run loop on 6x6 with every emit site live, rings wrapping and a trace export: the only workload where obs and policy work"},
	{"fleet_cold", "real nocsimd coordinator + 2 workers on an empty data dir running a Fig. 4-style grid from spec to served summary; simulation is ~95% of it, SDM jobs over half of that"},
	{"ctrl_plane", "in-process coordinator, journal and sharded store behind loopback HTTP with instant runners, then reopen+resubmit: control plane and append-logs do all the work, simulator none"},
}

// endToEndDefs are measured with the benchmark's tracing off and are
// reported by every workload. work_per_s carries the ISSUE's
// router_cycles_per_s on the three simulation workloads and jobs_per_s
// on the two fleet workloads; the contract wants every end-to-end
// metric from every workload, so the two share one name (README,
// "Deviations").
//
// The bounds come from the A/A runs (AA.md, README "How the bounds were
// derived"): host time on the reference sandbox moves 6-22 % between
// runs of one tree, so the time metrics carry the widest bound the
// contract allows; resident memory moves under 9 %.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayerDefs come from the traced pass: probes that time calls into
// one layer's public functions (identical on every workload) and
// counters read off the workload's own run (0 where the workload never
// enters the layer). Each group's comment names the end-to-end metric
// it should move; README has the full table.
var perLayerDefs = []metricDef{
	// construction -> setup_s on mesh32_par2; wall_s on hetero6x6, fleet_cold
	{"hsnoc.new_ms.6x6", "ms", "lower", 0},
	{"hsnoc.new_ms.32x32", "ms", "lower", 0},
	// executor -> work_per_s on mesh32_par2 only
	{"sim.empty_step_ns.w1", "ns", "lower", 0},
	{"sim.empty_step_ns.w2", "ns", "lower", 0},
	{"sim.speedup_w2", "x", "higher", 0},
	{"network.idle_skip_ns_per_router_cycle", "ns", "lower", 0},
	{"network.idle_tick_ns_per_router_cycle", "ns", "lower", 0},
	// router pipeline and slot tables -> work_per_s on hetero6x6, traced6x6
	{"router.ps_ns_per_router_cycle", "ns", "lower", 0},
	{"hybrid.tdm_extra_ns_per_router_cycle", "ns", "lower", 0},
	{"hybrid.lookup_ns", "ns", "lower", 0},
	{"hybrid.reserve_release_ns", "ns", "lower", 0},
	{"hybrid.dlt_find_ns", "ns", "lower", 0},
	// modelled counters of the 6x6 Hybrid-TDM-hop probe: exact repeats
	{"hybrid.cs_flit_frac", "frac", "higher", 0},
	{"hybrid.circuits_established", "count", "higher", 0},
	{"hybrid.config_traffic_frac", "frac", "lower", 0},
	{"hybrid.stolen_slots", "count", "higher", 0},
	{"hybrid.hitchhikes", "count", "higher", 0},
	{"hybrid.vicinity_rides", "count", "higher", 0},
	{"hybrid.dropped_cs", "count", "lower", 0},
	{"hybrid.misrouted_cs", "count", "lower", 0},
	{"traffic.tick_ns_per_node_cycle", "ns", "lower", 0},
	// simulated, exact; hetero6x6 only
	{"hetero.cpu_ipc", "1/cycle", "higher", 0},
	{"hetero.gpu_iter_per_kcycle", "1/kcycle", "higher", 0},
	{"hetero.gpu_cs_frac", "frac", "higher", 0},
	{"hetero.cpu_lat_cycles", "cycles", "lower", 0},
	{"hetero.gpu_lat_cycles", "cycles", "lower", 0},
	{"power.energy_saving_pct", "%", "higher", 0},
	{"power.buffer_dyn_saving_pct", "%", "higher", 0},
	{"power.static_saving_pct", "%", "higher", 0},
	{"power.paper_gap_pp", "pp", "lower", 0},
	{"flit.pool_get_put_ns", "ns", "lower", 0},
	{"flit.allocs_per_kcycle", "1/kcycle", "lower", 0},
	// -> work_per_s on fleet_cold only
	{"sdm.ns_per_router_cycle", "ns", "lower", 0},
	// -> wall_s and work_per_s on traced6x6 only
	{"obs.traced_overhead_frac", "frac", "lower", 0},
	{"obs.emit_ns", "ns", "lower", 0},
	{"obs.events_per_cycle", "1/cycle", "lower", 0},
	{"obs.ring_drops", "count", "lower", 0},
	{"obs.write_trace_ms_per_mevent", "ms", "lower", 0},
	{"obs.summary_ms", "ms", "lower", 0},
	{"policy.extract_ms", "ms", "lower", 0},
	{"policy.decide_ms", "ms", "lower", 0},
	{"policy.greedy_energy_delta_pct", "%", "lower", 0},
	{"invariant.checked_slowdown_x", "x", "lower", 0},
	// -> work_per_s on ctrl_plane (expand, stores) and fleet_cold (job times)
	{"campaign.expand_us_per_job", "us", "lower", 0},
	{"campaign.shardjobs_ms.8640", "ms", "lower", 0},
	{"campaign.simulate_ms_p50.packet", "ms", "lower", 0},
	{"campaign.simulate_ms_p50.tdm", "ms", "lower", 0},
	{"campaign.simulate_ms_p50.sdm", "ms", "lower", 0},
	{"campaign.job_ms_p50", "ms", "lower", 0},
	{"campaign.job_ms_p95", "ms", "lower", 0},
	{"campaign.engine_overhead_frac", "frac", "lower", 0},
	{"campaign.store_append_us", "us", "lower", 0},
	{"campaign.shardstore_append_us", "us", "lower", 0},
	{"campaign.store_open_ms_per_krecord", "ms", "lower", 0},
	{"campaign.shardstore_lookupall_us_per_key", "us", "lower", 0},
	{"campaign.aggregate_us_per_record", "us", "lower", 0},
	{"campaign.cache_hit_jobs_per_s", "1/s", "higher", 0},
	// -> work_per_s and wall_s on ctrl_plane; <=5% of fleet_cold
	{"fleet.submit_ms", "ms", "lower", 0},
	{"fleet.lease_us", "us", "lower", 0},
	{"fleet.complete_us_per_record", "us", "lower", 0},
	{"fleet.handler_lease_us", "us", "lower", 0},
	{"fleet.handler_complete_us", "us", "lower", 0},
	{"fleet.http_lease_rtt_us", "us", "lower", 0},
	{"fleet.http_complete_rtt_us", "us", "lower", 0},
	{"fleet.journal_syncs_per_shard", "count", "lower", 0},
	{"fleet.journal_bytes_per_job", "B", "lower", 0},
	{"fleet.reopen_ms", "ms", "lower", 0},
	{"fleet.resubmit_ms", "ms", "lower", 0},
	{"fleet.summary_ms", "ms", "lower", 0},
	{"fleet.records_duplicate", "count", "lower", 0},
	// real processes -> setup_s and work_per_s on fleet_cold
	{"nocsimd.ready_ms", "ms", "lower", 0},
	{"nocsimd.submit_rtt_ms", "ms", "lower", 0},
	{"nocsimd.status_rtt_ms", "ms", "lower", 0},
	{"nocsimd.summary_rtt_ms", "ms", "lower", 0},
	{"nocsimd.results_mb_per_s", "MB/s", "higher", 0},
	{"nocsimd.coord_cpu_s", "s", "lower", 0},
	{"nocsimd.worker_cpu_s", "s", "lower", 0},
	// traced vs untraced wall_s of this workload, same process, same size
	{"trace_overhead_frac", "frac", "lower", 0},
}

// Charsets of the builder's contract.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// contractFile is BENCHMARK.json: exactly these keys.
type contractFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []contractWL    `json:"workloads"`
	EndToEnd   []contractBound `json:"end_to_end"`
	PerLayer   []contractLayer `json:"per_layer"`
}

type contractWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// buildContract renders the registries above as BENCHMARK.json.
func buildContract() contractFile {
	c := contractFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		c.Workloads = append(c.Workloads, contractWL(w))
	}
	for _, m := range endToEndDefs {
		c.EndToEnd = append(c.EndToEnd, contractBound(m))
	}
	for _, m := range perLayerDefs {
		c.PerLayer = append(c.PerLayer, contractLayer{m.Name, m.Unit, m.Better})
	}
	return c
}

// validate checks a contract against the limits the driver enforces
// before a single run.
func (c contractFile) validate() error {
	if n := len(c.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("contract: %d workloads outside 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("contract: %d end-to-end metrics outside 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("contract: %d per-layer metrics outside 1..128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		return fmt.Errorf("contract: run_seconds %d outside 1..60", c.RunSeconds)
	}
	if len(c.Command) == 0 || len(c.Command) > 32 {
		return fmt.Errorf("contract: command has %d elements", len(c.Command))
	}
	if n := len(c.Paths); n < 1 || n > 16 {
		return fmt.Errorf("contract: %d paths outside 1..16", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("contract: %s name %q outside the charset", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("contract: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range c.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("contract: workload %s why has %d characters", w.Name, len(w.Why))
		}
	}
	direction := func(n, unit, better string) error {
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("contract: metric %s unit %q outside the charset", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("contract: metric %s better %q", n, better)
		}
		return nil
	}
	setup := false
	for _, m := range c.EndToEnd {
		if err := name("metric", m.Name); err != nil {
			return err
		}
		if err := direction(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("contract: metric %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("contract: end_to_end lacks setup_s (unit s, better lower)")
	}
	for _, m := range c.PerLayer {
		if err := name("metric", m.Name); err != nil {
			return err
		}
		if err := direction(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if len(b) > 64<<10 {
		return fmt.Errorf("contract: %d bytes exceeds 64 KiB", len(b))
	}
	return nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints: exactly
// these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fillMetrics renders values against a registry: every declared metric
// appears (a per-layer metric the workload never touched reads 0), and
// an undeclared name is a programming error.
func fillMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	var stray []string
	for k := range values {
		if _, ok := out[k]; !ok {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("benchmark: undeclared metrics %v", stray)
	}
	return out, nil
}
