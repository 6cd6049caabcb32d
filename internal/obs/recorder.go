package obs

import (
	"fmt"

	"tdmnoc/internal/topology"
)

// LatencyBuckets are the upper bounds (in cycles, inclusive) of the
// fixed setup-latency histogram. An extra overflow bucket catches
// everything above the last bound. The bounds double so the same
// buckets serve both an uncongested 4x4 mesh and a saturated 8x8 one.
var LatencyBuckets = [8]int64{8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket latency histogram. Counts[i] holds
// observations <= LatencyBuckets[i]; Counts[len(LatencyBuckets)] is the
// overflow bucket. All fields are plain integers so observation is
// allocation-free and the JSON form is deterministic.
type Histogram struct {
	Counts [len(LatencyBuckets) + 1]uint64 `json:"counts"`
	Sum    int64                           `json:"sum"`
	Total  uint64                          `json:"total"`
}

// Observe records one latency value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for ; i < len(LatencyBuckets); i++ {
		if v <= LatencyBuckets[i] {
			break
		}
	}
	h.Counts[i]++
	h.Sum += v
	h.Total++
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.Total += o.Total
}

// Sample is one closed telemetry window. Flit/steal/setup fields count
// occurrences within the window; the occupancy and queue fields are
// gauges captured at the window boundary; EnergyMilliPJ is the dynamic
// energy accrued during the window, in thousandths of a picojoule.
type Sample struct {
	Cycle         int64 `json:"cycle"`
	CSFlits       int64 `json:"cs_flits"`
	PSFlits       int64 `json:"ps_flits"`
	Steals        int64 `json:"steals"`
	SetupsOK      int64 `json:"setups_ok"`
	SetupsFailed  int64 `json:"setups_failed"`
	BufferedFlits int64 `json:"buffered_flits"`
	ReservedSlots int64 `json:"reserved_slots"`
	NIQueued      int64 `json:"ni_queued"`
	EnergyMilliPJ int64 `json:"energy_mpj"`
}

// Summary is the compact, timestamp-free JSON digest of a recorded run.
// It is a pure function of the simulation, so campaign records that
// embed it stay byte-identical between serial and parallel store runs.
type Summary struct {
	Cycles    int64  `json:"cycles"`
	Events    uint64 `json:"events"`
	RingDrops uint64 `json:"ring_drops"`
	// DroppedWindows counts telemetry windows evicted from the bounded
	// sample buffer (oldest first). A nonzero value means Samples starts
	// DroppedWindows*SampleEvery cycles into the run, not at its head.
	DroppedWindows uint64    `json:"dropped_windows"`
	Injected       int64     `json:"injected"`
	Ejected        int64     `json:"ejected"`
	CSFlits        int64     `json:"cs_flits"`
	PSFlits        int64     `json:"ps_flits"`
	Steals         int64     `json:"steals"`
	SetupsOK       int64     `json:"setups_ok"`
	SetupsFailed   int64     `json:"setups_failed"`
	SetupLatency   Histogram `json:"setup_latency"`
	BucketLE       []int64   `json:"bucket_le"`
	Samples        []Sample  `json:"samples,omitempty"`
	// Flows is the per-flow table (FlowStats) of a recorder built with
	// TrackFlows, nil otherwise. It is what the policy layer ranks, so
	// the record of a flow-tracking campaign job carries its profile.
	Flows []FlowStat `json:"flows,omitempty"`
}

// RecorderConfig sizes a Recorder. The zero value of every field picks
// a sensible default; Nodes must be set to the mesh's router count.
type RecorderConfig struct {
	// Nodes is the number of routers/NIs (width * height).
	Nodes int
	// RingCapacity bounds each shard's event timeline, rounded up to a
	// power of two (default 1 << 16). With S shards the recorder retains
	// up to S * RingCapacity events.
	RingCapacity int
	// SampleEvery closes a telemetry window every K cycles; 0 disables
	// time-series collection (the event rings still fill).
	SampleEvery int
	// MaxSamples bounds the retained windows, oldest dropped (default 4096).
	MaxSamples int
	// Shards is the number of worker shards (default 1). Size it to the
	// executor's worker count; shard 0 doubles as the control shard for
	// between-cycle emissions.
	Shards int
	// KindMask selects which event kinds are recorded; 0 means all.
	// Masked kinds cost one branch at the emit site and update neither
	// aggregates nor rings.
	KindMask uint32
	// RingSample decimates the event timeline: each tile handle pushes
	// only every RingSample-th unmasked event to its ring (<= 1 records
	// everything). Aggregate counters stay exact, and the control handle
	// is exempt so sampled gauges survive. Per-tile counters keep the
	// sampled timeline identical across worker counts.
	RingSample int
	// TrackFlows aggregates exact per-(src, dst) flow counters (see
	// FlowStat / FlowStats) for profile extraction. Requires KindInject,
	// KindEject and KindSetupLatency to pass the kind mask. Off by
	// default: the first packet of each flow allocates its map entry.
	TrackFlows bool
}

// Recorder owns per-worker shards (event ring + counters each), the
// setup-latency histogram, and the bounded time-series sample buffer.
// Everything is preallocated in NewRecorder; Handle.Emit and Sync never
// allocate. During a cycle each executor worker writes only its own
// shard; between cycles the caller goroutine (which the executor's
// barriers synchronize with) runs Sync and the control-handle emissions.
type Recorder struct {
	shards []*Shard
	nodes  int
	every  int64

	mask       uint32
	ringSample int
	trackFlows bool

	control Handle

	cycles int64

	lastEnergy int64

	samples        []Sample
	sampHead       int
	sampN          int
	droppedWindows uint64
}

// NewRecorder builds a Recorder, performing all allocation up front.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 1 << 16
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 4096
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.KindMask == 0 {
		cfg.KindMask = KindMaskAll
	}
	if cfg.RingSample < 1 {
		cfg.RingSample = 1
	}
	r := &Recorder{
		shards:     make([]*Shard, cfg.Shards),
		nodes:      cfg.Nodes,
		every:      int64(cfg.SampleEvery),
		mask:       cfg.KindMask,
		ringSample: cfg.RingSample,
		trackFlows: cfg.TrackFlows,
		samples:    make([]Sample, cfg.MaxSamples),
	}
	for i := range r.shards {
		r.shards[i] = &Shard{
			ring:      NewRing(cfg.RingCapacity),
			linkFlits: make([]int64, cfg.Nodes*int(topology.NumPorts)),
		}
		if cfg.TrackFlows {
			r.shards[i].flows = make(map[uint64]*FlowStat)
		}
	}
	// The control handle never samples: between-cycle gauges and energy
	// meters are already decimated by the network's sample interval, and
	// dropping some would corrupt the windowed deltas.
	r.control = Handle{s: r.shards[0], mask: cfg.KindMask}
	return r
}

// Handle returns a fresh per-emitter handle bound to the given worker's
// shard. Every emitter (router/NI tile) must get its own handle — the
// ring-sampling counter is per-handle, and per-tile counters are what
// keep a sampled timeline independent of the worker count. Allocates;
// call during attach, not during cycles.
func (r *Recorder) Handle(worker int) *Handle {
	if worker < 0 || worker >= len(r.shards) {
		panic(fmt.Sprintf("obs: handle for worker %d of %d shards", worker, len(r.shards)))
	}
	return &Handle{s: r.shards[worker], mask: r.mask, every: uint32(r.ringSample)}
}

// ControlHandle returns the shared control handle on shard 0, for
// between-cycle emissions from the caller goroutine (sampled gauges,
// energy meters, slot resizes). It is exempt from ring sampling.
func (r *Recorder) ControlHandle() *Handle { return &r.control }

// Shards returns the number of worker shards.
func (r *Recorder) Shards() int { return len(r.shards) }

// Rings returns every shard's ring, indexed by worker. For export: feed
// them to WriteTrace for the deterministic cross-shard timeline.
func (r *Recorder) Rings() []*Ring {
	out := make([]*Ring, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.ring
	}
	return out
}

// Sync must be called once between cycles (after the transfer phase and
// the network managers) with the post-step cycle number; the executor's
// barriers order the workers' shard writes before it. At every
// SampleEvery-th cycle it folds all shards' open window counters into
// one closed telemetry window. It never allocates.
func (r *Recorder) Sync(now int64) {
	r.cycles = now
	if r.every <= 0 || now == 0 || now%r.every != 0 {
		return
	}
	s := Sample{Cycle: now}
	var energy int64
	for _, sh := range r.shards {
		sh.takeWindow(&s)
		energy += sh.winEnergy
		sh.winEnergy = 0
	}
	// Energy emissions carry cumulative meter readings; a window with no
	// emission (sampling disabled or misaligned) reports zero rather than
	// a bogus negative delta.
	if energy != 0 {
		s.EnergyMilliPJ = energy - r.lastEnergy
		r.lastEnergy = energy
	}
	if r.sampN < len(r.samples) {
		r.samples[(r.sampHead+r.sampN)%len(r.samples)] = s
		r.sampN++
	} else {
		r.samples[r.sampHead] = s
		r.sampHead = (r.sampHead + 1) % len(r.samples)
		r.droppedWindows++
	}
}

// Events returns the total number of recorded events across all shards
// (including any that have since been dropped from the rings).
func (r *Recorder) Events() uint64 {
	var n uint64
	for _, s := range r.shards {
		n += s.events
	}
	return n
}

// Dropped returns the summed ring drop counters.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, s := range r.shards {
		n += s.ring.Dropped()
	}
	return n
}

// DroppedWindows returns how many telemetry windows were evicted from
// the bounded sample buffer.
func (r *Recorder) DroppedWindows() uint64 { return r.droppedWindows }

// LinkFlits returns the cumulative flits sent by node through port.
func (r *Recorder) LinkFlits(node int, port topology.Port) int64 {
	i := node*int(topology.NumPorts) + int(port)
	var n int64
	for _, s := range r.shards {
		if i >= 0 && i < len(s.linkFlits) {
			n += s.linkFlits[i]
		}
	}
	return n
}

// Steals returns the cumulative slot-steal count.
func (r *Recorder) Steals() int64 {
	var n int64
	for _, s := range r.shards {
		n += s.steals
	}
	return n
}

// SetupLatency returns the merged setup-latency histogram.
func (r *Recorder) SetupLatency() Histogram {
	var h Histogram
	for _, s := range r.shards {
		h.Merge(&s.setupLatency)
	}
	return h
}

// Samples returns the retained telemetry windows, oldest first.
func (r *Recorder) Samples() []Sample {
	out := make([]Sample, r.sampN)
	for i := 0; i < r.sampN; i++ {
		out[i] = r.samples[(r.sampHead+i)%len(r.samples)]
	}
	return out
}

// Summary assembles the deterministic JSON digest. All per-shard totals
// are summed; because each tile writes exactly one shard, the sums equal
// what a single-shard recorder would have counted.
func (r *Recorder) Summary() *Summary {
	le := make([]int64, len(LatencyBuckets))
	copy(le, LatencyBuckets[:])
	sum := &Summary{
		Cycles:         r.cycles,
		DroppedWindows: r.droppedWindows,
		SetupLatency:   r.SetupLatency(),
		BucketLE:       le,
		Samples:        r.Samples(),
		Flows:          r.FlowStats(),
	}
	for _, s := range r.shards {
		sum.Events += s.events
		sum.RingDrops += s.ring.Dropped()
		sum.Injected += s.injected
		sum.Ejected += s.ejected
		sum.CSFlits += s.csFlits
		sum.PSFlits += s.psFlits
		sum.Steals += s.steals
		sum.SetupsOK += s.setupsOK
		sum.SetupsFailed += s.setupsFail
	}
	return sum
}
