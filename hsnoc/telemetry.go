package hsnoc

import (
	"fmt"
	"io"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/textplot"
)

// TelemetryOptions sizes the observability recorder attached by
// AttachTelemetry. Zero values pick defaults.
type TelemetryOptions struct {
	// Every closes a time-series window every K cycles (default 64;
	// <= 0 keeps the default — use the event ring alone via WriteTrace).
	Every int
	// RingCapacity bounds each worker shard's event timeline, rounded up
	// to a power of two (default 1 << 16 events; raise it for
	// full-fidelity Perfetto traces of longer runs).
	RingCapacity int
	// KindMask restricts recording to the selected event kinds (0 = all;
	// build with obs.MaskOf). Masked kinds cost one branch per emission.
	KindMask uint32
	// RingSample records only every N-th event per emitter to the rings
	// (<= 1 = all). Aggregate counters stay exact; the sampled timeline
	// is deterministic across worker counts.
	RingSample int
	// TrackFlows aggregates exact per-(src, dst) flow counters, the
	// input to profile extraction (ExtractProfile). Requires the
	// inject/eject/setup-latency kinds to pass KindMask (obs.ProfileFlows
	// includes them).
	TrackFlows bool
}

// FlowProfileTelemetry is the recorder the policy layer reads: exact
// per-flow counters, link totals and windows of every cycles, with the
// event ring small and heavily decimated, since nothing that attaches
// it exports a trace. Campaign profile runs and nocsim's -policy
// profiling pass attach it.
func FlowProfileTelemetry(every int) TelemetryOptions {
	return TelemetryOptions{
		Every:        every,
		RingCapacity: 1 << 12,
		RingSample:   1 << 10,
		KindMask:     obs.ProfileFlows,
		TrackFlows:   true,
	}
}

// AttachTelemetry creates an obs.Recorder sized by opt and attaches it
// to the simulator's network. Call it before Warmup/Run; the recorder
// then observes the rest of the simulation. Parallel executors are fully
// supported — the recorder keeps one shard per worker and merges them
// deterministically at export, so traces and summaries are byte-identical
// across worker counts. Not available for HybridSDM.
func (s *Simulator) AttachTelemetry(opt TelemetryOptions) (*obs.Recorder, error) {
	if s.net == nil {
		return nil, fmt.Errorf("hsnoc: telemetry is not available for %v", s.cfg.Mode)
	}
	if s.rec != nil {
		return nil, fmt.Errorf("hsnoc: telemetry already attached")
	}
	every := opt.Every
	if every <= 0 {
		every = 64
	}
	if opt.TrackFlows && opt.KindMask != 0 {
		need := obs.MaskOf(obs.KindInject, obs.KindEject, obs.KindSetupLatency)
		if opt.KindMask&need != need {
			return nil, fmt.Errorf("hsnoc: TrackFlows requires the inject, eject and setup-latency kinds in KindMask")
		}
	}
	rec := obs.NewRecorder(obs.RecorderConfig{
		Nodes:        s.net.Mesh().Nodes(),
		RingCapacity: opt.RingCapacity,
		SampleEvery:  every,
		Shards:       s.net.Workers(),
		KindMask:     opt.KindMask,
		RingSample:   opt.RingSample,
		TrackFlows:   opt.TrackFlows,
	})
	s.net.AttachProbe(rec, every)
	s.rec, s.recEvery = rec, every
	return rec, nil
}

// Telemetry returns the attached recorder (nil if AttachTelemetry was
// never called).
func (s *Simulator) Telemetry() *obs.Recorder { return s.rec }

// LinkUtilizationGrid returns the per-link utilization heatmap grid
// recorded by the attached telemetry: a (2H-1) x (2W-1) interleaved grid
// of routers (ejection-link traffic) and inter-router links in
// flits/cycle. Returns nil when no telemetry is attached.
func (s *Simulator) LinkUtilizationGrid() [][]float64 {
	if s.rec == nil || s.net == nil {
		return nil
	}
	m := s.net.Mesh()
	return obs.LinkGrid(s.rec, m.Width, m.Height, int64(s.net.Now()))
}

// WriteTrace exports the recorded event timeline as Chrome trace-event
// JSON (Perfetto-loadable). Call after the run and before Close, which
// releases the event rings; requires an attached telemetry recorder.
func (s *Simulator) WriteTrace(w io.Writer) error {
	if s.rec == nil {
		return fmt.Errorf("hsnoc: no telemetry attached (call AttachTelemetry before the run)")
	}
	if s.rec.RingBytes() == 0 { // released by Close; NewRing never makes an empty ring
		return fmt.Errorf("hsnoc: WriteTrace after Close (Close releases the event rings)")
	}
	m := s.net.Mesh()
	// No toolchain or timestamp metadata: the trace must be a pure
	// function of (config, seed) so golden-file tests pin it. The shard
	// rings are merged into the deterministic timeline as they are
	// written, so the bytes do not depend on the worker count either.
	meta := obs.TraceMeta{
		Width: m.Width, Height: m.Height,
		OtherData: map[string]string{
			"mode":       s.cfg.Mode.String(),
			"mesh":       fmt.Sprintf("%dx%d", m.Width, m.Height),
			"seed":       fmt.Sprintf("%d", s.cfg.Seed),
			"ring_drops": fmt.Sprintf("%d", s.rec.Dropped()),
		},
	}
	return obs.WriteTrace(w, s.rec.Rings(), meta)
}

// RenderTelemetry renders the recorded time-series windows as terminal
// plots (CS/PS throughput and occupancy).
func (s *Simulator) RenderTelemetry() (string, error) {
	if s.rec == nil {
		return "", fmt.Errorf("hsnoc: no telemetry attached")
	}
	return obs.RenderTimeSeries(s.rec.Samples(), s.recEvery)
}

// RenderLinkHeatmap renders the per-link utilization heatmap.
func (s *Simulator) RenderLinkHeatmap() (string, error) {
	grid := s.LinkUtilizationGrid()
	if grid == nil {
		return "", fmt.Errorf("hsnoc: no telemetry attached")
	}
	return textplot.Heatmap("link utilisation (flits/cycle; routers at even cells)", grid), nil
}
