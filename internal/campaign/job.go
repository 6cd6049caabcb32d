package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

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
	// recorder sampling every K cycles; its Summary rides in the record
	// and the cache key is derived apart from the untelemetered run's
	// (key), so the two records are never interchangeable.
	TelemetryEvery int
	// trackFlows makes that recorder the policy layer's flow profiler
	// (hsnoc.FlowProfileTelemetry), so the Summary carries the flow table
	// policies decide from. Set by withProfile, which keys it apart.
	trackFlows bool
}

// NewJob builds a synthetic-traffic job and computes its cache key.
func NewJob(cfg hsnoc.Config, pattern hsnoc.Pattern, rate float64, warmup, measure int, label string) Job {
	j := Job{Label: label, Config: cfg, Pattern: pattern, Rate: rate, PatternName: pattern.String(),
		Warmup: warmup, Measure: measure}
	j.Key = j.key(hsnoc.ModelVersion)
	return j
}

// NewMixJob builds a job that runs the Section V tile system with one
// CPU benchmark and one GPU kernel (hsnoc.CPUBenchmarks/GPUBenchmarks).
// A mix hsnoc.Check refuses fails when the job runs; Spec.Normalize
// refuses it up front with the same check.
func NewMixJob(cfg hsnoc.Config, cpu, gpu string, warmup, measure int, label string) Job {
	j := Job{Label: label, Config: cfg, CPU: cpu, GPU: gpu, PatternName: "mix:" + cpu + "+" + gpu,
		Warmup: warmup, Measure: measure}
	j.Key = j.key(hsnoc.ModelVersion)
	return j
}

// withConfig returns the job moved onto cfg — same workload, same
// regions, same telemetry — and re-keyed.
func (j Job) withConfig(cfg hsnoc.Config) Job {
	j.Config = cfg
	j.Key = j.key(hsnoc.ModelVersion)
	return j
}

// key computes the cache key of the job's run: a SHA-256 over
// cfg.Hash() followed by the run's suffix (appendSuffix), derived once
// more when TelemetryEvery is set (keyOf).
func (j *Job) key(version int) string {
	var hash, suffix [128]byte
	return keyOf(j.Config.AppendHash(hash[:0]), j.appendSuffix(suffix[:0], version), j.TelemetryEvery)
}

// appendSuffix appends what follows the config hash in the key's
// preimage: |workload|warmup|measure, a synthetic workload being
// pattern|rate with the rate as %.9g (strconv's 'g' at nine digits, +Inf
// and NaN included), then "|model<version>" when version is non-zero.
func (j *Job) appendSuffix(b []byte, version int) []byte {
	b = append(append(b, '|'), j.PatternName...)
	if j.CPU == "" {
		b = strconv.AppendFloat(append(b, '|'), j.Rate, 'g', 9, 64)
	}
	b = strconv.AppendInt(append(b, '|'), int64(j.Warmup), 10)
	b = strconv.AppendInt(append(b, '|'), int64(j.Measure), 10)
	if version != 0 {
		b = strconv.AppendInt(append(b, "|model"...), int64(version), 10)
	}
	return b
}

// keyOf is the key whose preimage is a config hash and a suffix; with
// telemetry sampled every `every` cycles it is derived from that one, a
// SHA-256 over <key>|telemetry<every>. The preimage is built by append,
// so the only allocation is the returned string.
func keyOf(confHash, suffix []byte, every int) string {
	var buf [192]byte
	b := append(append(buf[:0], confHash...), suffix...)
	key := hexSum(b)
	if every > 0 {
		key = hexSum(appendDerived(b[:0], key[:], "|telemetry", every))
	}
	return string(key[:])
}

// rederive re-keys the job from its current key, for a run that
// differs from it only in what it records.
func (j *Job) rederive(tag string, every int) {
	var buf [96]byte
	key := hexSum(appendDerived(buf[:0], j.Key, tag, every))
	j.Key = string(key[:])
}

// appendDerived appends a derived key's preimage: base|<tag><every>.
func appendDerived[S string | []byte](b []byte, base S, tag string, every int) []byte {
	return strconv.AppendInt(append(append(b, base...), tag...), int64(every), 10)
}

// hexSum is the hex SHA-256 of b.
func hexSum(b []byte) (key [2 * sha256.Size]byte) {
	sum := sha256.Sum256(b)
	hex.Encode(key[:], sum[:])
	return key
}

// withProfile returns the job as a policy study's wave-1 job: the same
// run with the flow profiler sampling every `every` cycles. Its record
// carries a flow table no plain or telemetry record of the run has, so
// it is keyed apart from both — but not by any policy, so every study
// of the grid point shares it.
func (j Job) withProfile(every int) Job {
	j.Label += "/profile"
	j.TelemetryEvery, j.trackFlows = every, true
	j.rederive("|profile", every)
	return j
}

// unprofiled is the grid job a profiling job (withProfile) was made
// from.
func (j Job) unprofiled() Job {
	j.Label, j.TelemetryEvery, j.trackFlows = strings.TrimSuffix(j.Label, "/profile"), 0, false
	return j.withConfig(j.Config)
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
	// TelemetryEvery set; like Result it is timestamp-free, so telemetry-
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

// GroupWithoutSeed is the Aggregate key that folds seeds together:
// name/pattern/WxH/s<slots>/r<rate>, then whatever the label carries
// after its /seed<N> segment. The name is the label's first segment,
// the variant (a modes spec names its variants after their modes); a
// record without a label or without a mode is named by its mode. So two
// variants of one mode, and a policy study's profiling runs (/profile)
// and each policy's re-runs (/policy=<name>), are groups of their own.
// The label must be the requesting job's: Engine.Run, Resolve and the
// fleet's Records serve every record under it, whichever campaign
// stored the key first.
func GroupWithoutSeed(r Record) string {
	name, _, _ := strings.Cut(r.Label, "/")
	if name == "" || r.Mode == "" {
		name = r.Mode
	}
	_, seed, _ := strings.Cut(r.Label, "/seed")
	var buf [128]byte
	b := append(append(append(buf[:0], name...), '/'), r.Pattern...)
	b = strconv.AppendInt(append(b, '/'), int64(r.Width), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(r.Height), 10)
	b = strconv.AppendInt(append(b, "/s"...), int64(r.Slots), 10)
	b = strconv.AppendFloat(append(b, "/r"...), r.Rate, 'f', 3, 64)
	return string(append(b, strings.TrimLeft(seed, "0123456789")...))
}
