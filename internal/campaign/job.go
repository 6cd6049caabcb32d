package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// Job is one simulation to run: a fully specified configuration plus
// the workload and measurement parameters. The workload is either
// synthetic traffic (a pattern at a rate) or a Section V heterogeneous
// mix (a CPU benchmark and a GPU kernel on the Fig. 7 tile layout).
// Jobs are independent and deterministic, so equal keys mean
// interchangeable results.
type Job struct {
	// Key is the cache key: a canonical hash over the config hash and
	// the run parameters. Two jobs with equal keys produce identical
	// records.
	Key string
	// Label is a human-readable identifier carried into the record.
	Label string
	// Config is the complete network configuration (includes the seed).
	Config hsnoc.Config
	// Pattern and Rate describe a synthetic workload (NewJob); CPU and
	// GPU name the benchmarks of a mix (NewMixJob). A job sets one pair
	// and leaves the other zero.
	Pattern  hsnoc.Pattern
	Rate     float64
	CPU, GPU string
	// PatternName is the workload as specs and records spell it: the
	// pattern's name, or "mix:<CPU>+<GPU>".
	PatternName string
	// Warmup and Measure are the region lengths in cycles.
	Warmup, Measure int
	// TelemetryEvery, when positive, attaches a per-job observability
	// recorder sampling every K cycles; its Summary rides in the record.
	// Set it through WithTelemetry so the cache key reflects it.
	TelemetryEvery int
	// trackFlows makes that recorder the policy layer's flow profiler
	// (hsnoc.FlowProfileTelemetry), so the Summary carries the flow table
	// policies decide from. Set by withProfile, which keys it apart.
	trackFlows bool
}

// NewJob builds a synthetic-traffic job and computes its cache key. It
// is the bridge for drivers (cmd/experiments' built-in figures) that
// construct configs programmatically rather than through a Spec.
func NewJob(cfg hsnoc.Config, pattern hsnoc.Pattern, rate float64, warmup, measure int, label string) Job {
	return Job{Label: label, Pattern: pattern, Rate: rate, PatternName: pattern.String(),
		Warmup: warmup, Measure: measure}.withConfig(cfg)
}

// NewMixJob builds a job that runs the Section V tile system with one
// CPU benchmark and one GPU kernel (hsnoc.CPUBenchmarks/GPUBenchmarks).
// A mix hsnoc.NewHeterogeneous refuses fails when the job runs;
// Spec.Normalize refuses the same mixes up front.
func NewMixJob(cfg hsnoc.Config, cpu, gpu string, warmup, measure int, label string) Job {
	return Job{Label: label, CPU: cpu, GPU: gpu, PatternName: "mix:" + cpu + "+" + gpu,
		Warmup: warmup, Measure: measure}.withConfig(cfg)
}

// withConfig returns the job moved onto cfg — same workload, same
// regions, same telemetry — and re-keyed.
func (j Job) withConfig(cfg hsnoc.Config) Job {
	workload := j.PatternName
	if j.CPU == "" {
		workload = fmt.Sprintf("%s|%.9g", j.PatternName, j.Rate)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d", cfg.Hash(), workload, j.Warmup, j.Measure)))
	every := j.TelemetryEvery
	j.Config, j.Key, j.TelemetryEvery = cfg, hex.EncodeToString(sum[:]), 0
	return j.WithTelemetry(every)
}

// WithTelemetry returns a copy of the job with per-job telemetry
// enabled at the given sampling interval (cycles). Telemetry changes
// what the record carries, so the job is re-keyed: a cached record
// without telemetry is not interchangeable with one that has it. A
// non-positive interval returns the job unchanged.
func (j Job) WithTelemetry(every int) Job {
	if every <= 0 {
		return j
	}
	j.TelemetryEvery = every
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|telemetry%d", j.Key, every)))
	j.Key = hex.EncodeToString(sum[:])
	return j
}

// withProfile returns the job as a policy study's wave-1 job: the same
// run with the flow profiler sampling every `every` cycles. Its record
// carries a flow table no plain or telemetry record of the run has, so
// it is keyed apart from both — but not by any policy, so every study
// of the grid point shares it.
func (j Job) withProfile(every int) Job {
	j.Label += "/profile"
	j.TelemetryEvery, j.trackFlows = every, true
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|profile%d", j.Key, every)))
	j.Key = hex.EncodeToString(sum[:])
	return j
}

// Record is one job's persisted result — one JSONL line in the result
// store. It carries enough of the job identity to be useful standalone
// and a mergeable RunRecord with the metrics. Records hold no
// timestamps: a record is a pure function of its job, which is what
// makes serial and parallel campaign output byte-identical.
type Record struct {
	Key     string  `json:"key"`
	Label   string  `json:"label,omitempty"`
	Mode    string  `json:"mode"`
	Pattern string  `json:"pattern"`
	Width   int     `json:"width"`
	Height  int     `json:"height"`
	Slots   int     `json:"slots,omitempty"`
	Rate    float64 `json:"rate"`
	Seed    uint64  `json:"seed"`
	Warmup  int     `json:"warmup"`
	Measure int     `json:"measure"`

	Result stats.RunRecord `json:"result"`
	// Telemetry is the observability digest of jobs run with
	// WithTelemetry; like Result it is timestamp-free, so telemetry-
	// bearing stores stay byte-identical between serial and parallel
	// campaign runs.
	Telemetry *obs.Summary `json:"telemetry,omitempty"`
	// Err is set when the job failed (timeout, cancellation, panic);
	// failed records are returned to the caller but never persisted,
	// so a resumed campaign retries them.
	Err string `json:"error,omitempty"`

	// Cached marks records served from the result store or deduped
	// within the campaign. Runtime-only: excluded from persistence so
	// stored bytes stay identical across fresh and resumed runs.
	Cached bool `json:"-"`
}

// newRecord seeds a record with the job's identity.
func newRecord(j Job) Record {
	return Record{
		Key:     j.Key,
		Label:   j.Label,
		Mode:    j.Config.Mode.String(),
		Pattern: j.PatternName,
		Width:   j.Config.Width,
		Height:  j.Config.Height,
		Slots:   j.Config.SlotTableEntries,
		Rate:    j.Rate,
		Seed:    j.Config.Seed,
		Warmup:  j.Warmup,
		Measure: j.Measure,
	}
}

// Aggregate merges records sharing a group key (records with non-empty
// Err are skipped). The classic use is averaging a sweep point across
// seeds: group by everything except the seed.
func Aggregate(recs []Record, key func(Record) string) map[string]stats.RunRecord {
	out := map[string]stats.RunRecord{}
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		k := key(r)
		agg := out[k]
		agg.Merge(r.Result)
		out[k] = agg
	}
	return out
}

// GroupWithoutSeed is the Aggregate key that folds seeds together.
func GroupWithoutSeed(r Record) string {
	return fmt.Sprintf("%s/%s/%dx%d/s%d/r%.3f", r.Mode, r.Pattern, r.Width, r.Height, r.Slots, r.Rate)
}
