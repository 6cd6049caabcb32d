package campaign

import (
	"context"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// Simulate is the default Runner: it builds the simulator for the job,
// warms it up, measures, and converts the results into a mergeable
// record. Jobs built with WithTelemetry additionally attach an
// observability recorder and return its Summary.
func Simulate(ctx context.Context, j Job) (rr stats.RunRecord, sum *obs.Summary, err error) {
	rr, err = simulate(ctx, j, hsnoc.TelemetryOptions{Every: j.TelemetryEvery}, func(_ *hsnoc.Simulator, rec *obs.Recorder) error {
		if rec != nil {
			sum = rec.Summary()
		}
		return nil
	})
	return rr, sum, err
}

// newSimulator is the one place a job's workload kind turns into a
// constructor call.
func newSimulator(j Job) (*hsnoc.Simulator, error) {
	if j.CPU != "" {
		return hsnoc.NewHeterogeneous(j.Config, j.CPU, j.GPU)
	}
	return hsnoc.NewSynthetic(j.Config, j.Pattern, j.Rate), nil
}

// simulate is the one body every job runs through: build, attach
// telemetry (telem.Every > 0), warm up, measure, let the caller read
// what it needs off the still-open simulator (after), check invariants.
// The simulator (and its executor worker pool, if any) is always
// released, including on cancellation and panic paths.
func simulate(ctx context.Context, j Job, telem hsnoc.TelemetryOptions, after func(*hsnoc.Simulator, *obs.Recorder) error) (stats.RunRecord, error) {
	s, err := newSimulator(j)
	if err != nil {
		return stats.RunRecord{}, err
	}
	defer s.Close()
	var rec *obs.Recorder
	if telem.Every > 0 {
		if rec, err = s.AttachTelemetry(telem); err != nil {
			return stats.RunRecord{}, err
		}
	}
	if err := s.WarmupContext(ctx, j.Warmup); err != nil {
		return stats.RunRecord{}, err
	}
	res, err := s.RunContext(ctx, j.Measure)
	if err != nil {
		return stats.RunRecord{}, err
	}
	if err := after(s, rec); err != nil {
		return stats.RunRecord{}, err
	}
	rr := FromResults(res)
	if j.CPU != "" {
		// Fig. 9's split rides only in mix records: a synthetic record's
		// stored bytes must not move.
		rr.DynamicPJ, rr.StaticPJ = res.Energy.DynamicPJ, res.Energy.StaticPJ
	}
	// With Config.CheckInvariants set, a run that tripped the checker is
	// a failure: the record is returned for inspection but the error
	// keeps the engine from persisting (and thus caching) corrupt data.
	return rr, s.InvariantError()
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
