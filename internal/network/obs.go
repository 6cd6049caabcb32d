package network

import (
	"fmt"

	"tdmnoc/internal/hybrid"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/power"
)

// AttachProbe installs per-tile observability handles on every router
// and NI, gives the slot-table resizer the recorder's control handle,
// and enables the network's periodic telemetry pass: every sampleEvery
// cycles (0 disables sampling) the network emits per-router VC
// occupancy, slot-table occupancy and cumulative energy gauges plus
// per-NI queue depths, then calls rec.Sync — in that order, so a
// window-closing Sync always sees the gauges of its own boundary cycle.
//
// Parallel executors are fully supported: each tile's handle is bound to
// the shard of the worker that owns the tile (the executor aligns
// partitions to whole tiles), so a worker only ever writes its own
// shard during a cycle and the phase barriers order those writes before
// the between-cycle Sync. The recorder must therefore carry at least
// Workers() shards. Between-cycle emissions (gauges, resizes) go through
// the control handle on the caller goroutine.
func (n *Network) AttachProbe(rec *obs.Recorder, sampleEvery int) {
	if rec == nil {
		panic("network: AttachProbe requires a non-nil recorder")
	}
	if rec.Shards() < n.exec.Workers() {
		panic(fmt.Sprintf("network: recorder has %d shards for %d workers",
			rec.Shards(), n.exec.Workers()))
	}
	n.rec = rec
	n.control = rec.ControlHandle()
	n.probeEvery = int64(sampleEvery)
	for id, r := range n.routers {
		// tileOwner records which worker's partition ticks each tile; the
		// router and NI of a tile share that worker but get separate
		// handles (ring-sampling counters are per-emitter).
		r.SetProbe(rec.Handle(n.tileOwner[id]))
	}
	for id, ni := range n.nis {
		ni.probe = rec.Handle(n.tileOwner[id])
	}
	n.resizer.SetProbe(n.control)
}

// sampleTelemetry emits the periodic gauge events (see AttachProbe).
// It runs between cycles on the caller goroutine via the control handle.
func (n *Network) sampleTelemetry(now int64) {
	n.SyncMeters() // energy gauges must include skipped-cycle leakage
	for id, r := range n.routers {
		if n.control.Wants(obs.KindVCOccupancy) {
			n.control.Emit(obs.Event{Cycle: now, Kind: obs.KindVCOccupancy,
				Node: int32(id), Val: int64(r.BufferedFlits())})
		}
		hybrid.SampleTables(n.control, now, id, r.Tables())
		power.SampleEnergy(n.control, now, id, r.Meter())
	}
	for id, ni := range n.nis {
		if n.control.Wants(obs.KindQueueDepth) {
			n.control.Emit(obs.Event{Cycle: now, Kind: obs.KindQueueDepth,
				Node: int32(id), Val: int64(ni.QueuedPackets())})
		}
	}
}
