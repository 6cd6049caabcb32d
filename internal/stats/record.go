package stats

// RunRecord is a mergeable summary of one or more measured simulation
// regions. Every field is a sum — latencies packet-weighted, fractions
// packet-weighted, throughputs cycle-weighted — so two records combine
// by plain addition and the accessors re-derive the familiar averages.
// This is what the campaign engine persists per job and what aggregate
// views (e.g. averaging a sweep point across seeds) merge.
//
// RunRecord deliberately holds no timestamps or wall-clock durations:
// a record is a pure function of (config, pattern, rate, seed, cycles),
// which is what makes campaign JSONL output byte-identical across
// serial and parallel executions.
type RunRecord struct {
	// Runs is the number of merged measured regions.
	Runs int64 `json:"runs"`
	// Cycles is the total measured cycles across runs.
	Cycles int64 `json:"cycles"`
	// Packets is the total data packets delivered.
	Packets int64 `json:"packets"`
	// NetLatencySum / TotalLatencySum are packet-weighted latency sums
	// in cycles (avg x packets per region).
	NetLatencySum   float64 `json:"net_latency_sum"`
	TotalLatencySum float64 `json:"total_latency_sum"`
	// FlitCycles / PayloadCycles are cycle-weighted throughput sums
	// (flits/node/cycle x cycles per region).
	FlitCycles    float64 `json:"flit_cycles"`
	PayloadCycles float64 `json:"payload_cycles"`
	// CSFracPackets / ConfigFracPackets are packet-weighted fraction
	// sums (fraction x packets per region).
	CSFracPackets     float64 `json:"cs_frac_packets"`
	ConfigFracPackets float64 `json:"config_frac_packets"`
	// Path-sharing and circuit counters.
	Hitchhikes    int64 `json:"hitchhikes,omitempty"`
	VicinityRides int64 `json:"vicinity_rides,omitempty"`
	Circuits      int64 `json:"circuits,omitempty"`
	// ActiveSlots is the largest in-use slot-table region seen across
	// the merged runs (a high-water mark, not a sum).
	ActiveSlots int `json:"active_slots,omitempty"`
	// EnergyPJ is total network energy in picojoules.
	EnergyPJ float64 `json:"energy_pj"`

	// The Section V figures (Figs. 8-9, Table III). Only heterogeneous
	// mix jobs fill them; a synthetic job's record leaves them empty and
	// encodes exactly as it did before they existed.
	//
	// CPUInstructions retired and GPUIterations completed.
	CPUInstructions int64 `json:"cpu_instructions,omitempty"`
	GPUIterations   int64 `json:"gpu_iterations,omitempty"`
	// GPUFlitCycles is the cycle-weighted GPU injection rate
	// (flits/accelerator tile/cycle x cycles); GPUCSFlitCycles is the
	// part of it that rode circuits.
	GPUFlitCycles   float64 `json:"gpu_flit_cycles,omitempty"`
	GPUCSFlitCycles float64 `json:"gpu_cs_flit_cycles,omitempty"`
	// DynamicPJ / StaticPJ split EnergyPJ by router component (buffer,
	// cs-component, crossbar, arbiter, clock, link), in picojoules.
	DynamicPJ map[string]float64 `json:"dynamic_pj,omitempty"`
	StaticPJ  map[string]float64 `json:"static_pj,omitempty"`
}

// Merge adds o into r. ActiveSlots takes the maximum; everything else
// sums.
func (r *RunRecord) Merge(o RunRecord) {
	r.Runs += o.Runs
	r.Cycles += o.Cycles
	r.Packets += o.Packets
	r.NetLatencySum += o.NetLatencySum
	r.TotalLatencySum += o.TotalLatencySum
	r.FlitCycles += o.FlitCycles
	r.PayloadCycles += o.PayloadCycles
	r.CSFracPackets += o.CSFracPackets
	r.ConfigFracPackets += o.ConfigFracPackets
	r.Hitchhikes += o.Hitchhikes
	r.VicinityRides += o.VicinityRides
	r.Circuits += o.Circuits
	if o.ActiveSlots > r.ActiveSlots {
		r.ActiveSlots = o.ActiveSlots
	}
	r.EnergyPJ += o.EnergyPJ
	r.CPUInstructions += o.CPUInstructions
	r.GPUIterations += o.GPUIterations
	r.GPUFlitCycles += o.GPUFlitCycles
	r.GPUCSFlitCycles += o.GPUCSFlitCycles
	r.DynamicPJ = addComponents(r.DynamicPJ, o.DynamicPJ)
	r.StaticPJ = addComponents(r.StaticPJ, o.StaticPJ)
}

// addComponents returns dst with src's per-component energy added. dst
// is allocated on first use, never aliased to src: merged records must
// not write into the records they were merged from.
func addComponents(dst, src map[string]float64) map[string]float64 {
	if dst == nil && len(src) > 0 {
		dst = make(map[string]float64, len(src))
	}
	for c, pj := range src {
		dst[c] += pj
	}
	return dst
}

// per is sum/n, the average a pair of sum-form fields stands for, and 0
// for an empty record.
func per(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// AvgNetLatency is the packet-weighted mean injection-to-ejection
// latency in cycles.
func (r RunRecord) AvgNetLatency() float64 { return per(r.NetLatencySum, float64(r.Packets)) }

// AvgTotalLatency is the packet-weighted mean creation-to-ejection
// latency (includes source queueing).
func (r RunRecord) AvgTotalLatency() float64 { return per(r.TotalLatencySum, float64(r.Packets)) }

// Throughput is accepted flits/node/cycle averaged over the merged
// regions.
func (r RunRecord) Throughput() float64 { return per(r.FlitCycles, float64(r.Cycles)) }

// PayloadThroughput is accepted payload-normalised flits/node/cycle.
func (r RunRecord) PayloadThroughput() float64 { return per(r.PayloadCycles, float64(r.Cycles)) }

// CSFlitFraction is the packet-weighted circuit-switched flit share.
func (r RunRecord) CSFlitFraction() float64 { return per(r.CSFracPackets, float64(r.Packets)) }

// ConfigTrafficFraction is the packet-weighted configuration-traffic
// overhead.
func (r RunRecord) ConfigTrafficFraction() float64 {
	return per(r.ConfigFracPackets, float64(r.Packets))
}

// GPUInjectionRate is the cycle-weighted offered GPU load in
// flits/accelerator tile/cycle (Table III).
func (r RunRecord) GPUInjectionRate() float64 { return per(r.GPUFlitCycles, float64(r.Cycles)) }

// GPUCSFraction is the flit-weighted share of GPU traffic that was
// circuit-switched (Table III).
func (r RunRecord) GPUCSFraction() float64 { return per(r.GPUCSFlitCycles, r.GPUFlitCycles) }

// EnergySavingVs is the fractional energy saving of r relative to a
// baseline record (positive = r uses less energy). Both totals are
// normalized to energy per measured cycle before comparing, so records
// of different lengths (or merged records with different run counts)
// compare meaningfully. ok is false when either record has zero
// measured cycles or the baseline reports zero energy — in those cases
// no saving figure is defined and the caller should not print one.
func (r RunRecord) EnergySavingVs(base RunRecord) (saving float64, ok bool) {
	if r.Cycles == 0 || base.Cycles == 0 || base.EnergyPJ == 0 {
		return 0, false
	}
	perCycle := r.EnergyPJ / float64(r.Cycles)
	basePerCycle := base.EnergyPJ / float64(base.Cycles)
	return 1 - perCycle/basePerCycle, true
}
