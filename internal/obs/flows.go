package obs

import "sort"

// FlowStat aggregates everything the recorder observed about one
// (source NI, destination NI) traffic flow: injected volume, delivery
// latency, and the circuit-setup round trips the source attempted
// toward that destination. Flow tracking is opt-in
// (RecorderConfig.TrackFlows) because the per-flow map costs an
// allocation the first time each flow appears on a shard; with it off,
// the flow branch in the aggregate path is a single nil check.
//
// Counters are exact regardless of ring sampling (they ride the same
// aggregate path as the Summary totals), and summing shards at export
// reproduces the serial counts: injections and setups land on the
// source tile's shard, ejections on the destination tile's shard, and
// each tile writes exactly one shard.
type FlowStat struct {
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Packets / Flits count injections at the source (Flits includes
	// head+body+tail). CSPackets is the subset staged onto a circuit.
	Packets   int64 `json:"packets"`
	Flits     int64 `json:"flits"`
	CSPackets int64 `json:"cs_packets"`
	// Ejected / LatencySum are measured at the destination: packets
	// fully reassembled and their summed inject-to-eject latency.
	Ejected    int64 `json:"ejected"`
	LatencySum int64 `json:"latency_sum"`
	// Setup round trips observed by the source NI toward Dst.
	SetupsOK        int64 `json:"setups_ok"`
	SetupsFailed    int64 `json:"setups_failed"`
	SetupLatencySum int64 `json:"setup_latency_sum"`
}

// flowKey packs a (src, dst) pair into one map key.
func flowKey(src, dst int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// flow returns the shard's aggregate for key, allocating it on first
// sight. Only called when flow tracking is enabled.
func (s *Shard) flow(key uint64) *FlowStat {
	if f, ok := s.flows[key]; ok {
		return f
	}
	f := &FlowStat{Src: int32(key >> 32), Dst: int32(uint32(key))}
	s.flows[key] = f
	return f
}

// FlowTracking reports whether this recorder aggregates per-flow stats.
func (r *Recorder) FlowTracking() bool { return r.trackFlows }

// FlowStats merges the per-shard flow aggregates and returns them
// sorted by (Src, Dst). The result is a pure function of the simulated
// traffic — byte-identical across worker counts — because every
// counter is summed across shards and the sort order is total. Returns
// nil when flow tracking is disabled. Allocates; call between cycles
// or after the run.
func (r *Recorder) FlowStats() []FlowStat {
	if !r.trackFlows {
		return nil
	}
	merged := make(map[uint64]*FlowStat)
	for _, s := range r.shards {
		for k, f := range s.flows {
			m, ok := merged[k]
			if !ok {
				m = &FlowStat{Src: f.Src, Dst: f.Dst}
				merged[k] = m
			}
			m.Packets += f.Packets
			m.Flits += f.Flits
			m.CSPackets += f.CSPackets
			m.Ejected += f.Ejected
			m.LatencySum += f.LatencySum
			m.SetupsOK += f.SetupsOK
			m.SetupsFailed += f.SetupsFailed
			m.SetupLatencySum += f.SetupLatencySum
		}
	}
	out := make([]FlowStat, 0, len(merged))
	for _, f := range merged {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
