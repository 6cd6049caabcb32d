package campaign

import (
	"context"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// Simulate is the default Runner: it builds the simulator for the job,
// attaches telemetry (Job.TelemetryEvery > 0: an observability
// recorder, or for a policy study's profiling jobs the flow profiler),
// warms up, measures, and converts the results into a mergeable record
// plus the recorder's Summary. The simulator (and its executor worker
// pool, if any) is always released, including on cancellation and
// panic paths.
func Simulate(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
	var w hsnoc.Workload = hsnoc.Synthetic{Pattern: j.Pattern, Rate: j.Rate}
	if j.CPU != "" {
		w = hsnoc.Mix{CPU: j.CPU, GPU: j.GPU}
	}
	s, err := hsnoc.New(j.Config, w)
	if err != nil {
		return stats.RunRecord{}, nil, err
	}
	defer s.Close()
	var rec *obs.Recorder
	if j.TelemetryEvery > 0 {
		telem := hsnoc.TelemetryOptions{Every: j.TelemetryEvery}
		if j.trackFlows {
			telem = hsnoc.FlowProfileTelemetry(j.TelemetryEvery)
		}
		if rec, err = s.AttachTelemetry(telem); err != nil {
			return stats.RunRecord{}, nil, err
		}
	}
	if err := s.WarmupContext(ctx, j.Warmup); err != nil {
		return stats.RunRecord{}, nil, err
	}
	res, err := s.RunContext(ctx, j.Measure)
	if err != nil {
		return stats.RunRecord{}, nil, err
	}
	rr := FromResults(res)
	if j.CPU != "" {
		// Fig. 9's split rides only in mix records: a synthetic record's
		// stored bytes must not move.
		rr.DynamicPJ, rr.StaticPJ = res.Energy.DynamicPJ, res.Energy.StaticPJ
	}
	var sum *obs.Summary
	if rec != nil {
		sum = rec.Summary()
	}
	// With Config.CheckInvariants set, a run that tripped the checker is
	// a failure: the record is returned for inspection but the error
	// keeps the engine from persisting (and thus caching) corrupt data.
	return rr, sum, s.InvariantError()
}

// FromResults converts an hsnoc measurement into the sum-form mergeable
// record; the Section V counters are zero, and so absent from the
// encoding, for a workload without tiles (internal/stats cannot import
// hsnoc — the engine packages sit above it — so the conversion lives
// here).
func FromResults(r hsnoc.Results) stats.RunRecord {
	return stats.RunRecord{
		Runs:              1,
		Cycles:            r.Cycles,
		Packets:           r.Packets,
		NetLatencySum:     r.AvgNetLatency * float64(r.Packets),
		TotalLatencySum:   r.AvgTotalLatency * float64(r.Packets),
		FlitCycles:        r.Throughput * float64(r.Cycles),
		PayloadCycles:     r.PayloadThroughput * float64(r.Cycles),
		CSFracPackets:     r.CSFlitFraction * float64(r.Packets),
		ConfigFracPackets: r.ConfigTrafficFraction * float64(r.Packets),
		Hitchhikes:        r.Hitchhikes,
		VicinityRides:     r.VicinityRides,
		Circuits:          r.CircuitsEstablished,
		ActiveSlots:       r.ActiveSlotEntries,
		EnergyPJ:          r.Energy.TotalPJ,
		CPUInstructions:   r.CPUInstructions,
		GPUIterations:     r.GPUIterations,
		GPUFlitCycles:     r.GPUInjectionRate * float64(r.Cycles),
		GPUCSFlitCycles:   r.GPUCSFraction * (r.GPUInjectionRate * float64(r.Cycles)),
	}
}
