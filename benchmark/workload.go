package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/topology"
	"tdmnoc/internal/traffic"
)

// env is what one pass of a workload runs under.
type env struct {
	root    string  // module root
	seed    uint64  // workload seed: the program only ever sees configs derived from it
	seconds float64 // sizing: the measured region should take about this long on the reference host
	smoke   bool    // tiny sizes for tests
	full    bool    // -check: full-strength gate instead of the sampled one
	tr      *tracer // nil = tracing off
	setups  int     // set-ups before the measured region (1 = a single set-up, no later samples)
}

// outcome is what one pass of a workload produced.
type outcome struct {
	setupS    float64 // host seconds of one set-up (mean of the fastest quarter of the samples)
	wallS     float64 // host seconds of the measured region (after the first set-up)
	work      float64 // router-cycles (simulation workloads) or persisted jobs (fleet workloads)
	workS     float64 // host seconds the work is divided by
	rssMB     float64 // peak resident set at the end of the measured region
	buildS    float64 // host seconds spent compiling binaries: provenance, outside every metric
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64 // per-layer values read off this pass
}

// fail counts n failed ops and keeps the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// set records a per-layer value.
func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// endToEnd renders the four end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	rate := 0.0
	if o.workS > 0 {
		rate = o.work / o.workS
	}
	return map[string]float64{
		"setup_s":     o.setupS,
		"wall_s":      o.wallS,
		"work_per_s":  rate,
		"peak_rss_mb": o.rssMB,
	}
}

// workload is one benchmark workload: refuse names the reason this
// host cannot measure it ("" = can), run executes one pass including
// its health and correctness gate.
type workload struct {
	def    workloadDef
	refuse func() string
	setups int // set-ups before the measured region; more samples follow inside the run (see setups)
	run    func(e *env) outcome
}

func needTwoCores() string {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		return fmt.Sprintf("needs 2 cores (GOMAXPROCS=%d, NumCPU=%d): a two-worker number taken on one core is not a measurement",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return ""
}

func anyHost() string { return "" }

var workloads = []workload{
	{workloadDefs[0], anyHost, 3, runHetero},         // + the 13 later Packet-VC4 constructions
	{workloadDefs[1], needTwoCores, 3, runMesh32},    // all up front
	{workloadDefs[2], anyHost, 3, runTraced},         // + 8 after the region
	{workloadDefs[3], needTwoCores, 2, runFleetCold}, // + 4 after the campaign
	{workloadDefs[4], needTwoCores, 5, runCtrlPlane}, // + 10 after the read side
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.def.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// healthFloor is the share of the offered rate every synthetic run must
// accept. A workload that misses it at the parent commit gets a lower
// offered rate, never a looser floor.
const healthFloor = 0.85

// offeredLoad is what the generators of a pattern really offer, in
// flits/node/cycle averaged over the mesh: the nominal rate times the
// share of nodes the pattern gives a destination (transpose's diagonal
// sends nothing, so 6x6 transpose offers 30/36 of its rate).
func offeredLoad(pat hsnoc.Pattern, width, height int, rate float64) float64 {
	m := topology.NewMesh(width, height)
	rng := sim.NewRNG(1)
	senders := 0
	for id := 0; id < m.Nodes(); id++ {
		if _, ok := traffic.Destination(pat, m, topology.NodeID(id), rng); ok {
			senders++
		}
	}
	return rate * float64(senders) / float64(m.Nodes())
}

// healthy applies the floor to one synthetic run and names the miss.
func healthy(pat hsnoc.Pattern, width, height int, rate, accepted float64) (string, bool) {
	offered := offeredLoad(pat, width, height, rate)
	if accepted < healthFloor*offered {
		return fmt.Sprintf("health: accepted %.4f < %.2f x offered %.4f flits/node/cycle", accepted, healthFloor, offered), false
	}
	return "", true
}

// guard runs one op, turning a panic inside the program under test into
// a failed op instead of a dead benchmark.
func guard(o *outcome, what string, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			o.fail(1, "%s: panic: %v", what, p)
		}
	}()
	fn()
}

// setups times a workload's set-up at several moments of a run and
// reports the mean of the fastest quarter. The sandbox runs at one of
// two speeds and switches between them every few hundred milliseconds
// to seconds (README, "How the bounds were derived"); a millisecond
// set-up repeated back to back sees only one of them, and a median of
// the repeats is then whichever speed that was. Samples spread over a
// second or more nearly always include the fast state, whose cost is
// the code's own.
type setups struct {
	fn     func() (teardown func(), err error)
	single bool // one set-up only (smoke, traced passes): again does nothing
	times  []float64
}

// first runs n set-ups back to back. Every instance but the last is
// torn down and its memory handed back to the OS, so later repeats pay
// the page faults and heap growth a fresh process pays; the last
// instance is the one the workload then uses.
func (s *setups) first(n int) error {
	if n <= 1 {
		n, s.single = 1, true
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		teardown, err := s.fn()
		if err != nil {
			return err
		}
		s.times = append(s.times, time.Since(start).Seconds())
		if i < n-1 {
			teardown()
			debug.FreeOSMemory()
		}
	}
	return nil
}

// again takes n more samples, each set up and torn down at once and
// 50 ms apart so that they do not all land in one state of the host.
// Call it after the measured region and after its peak RSS has been
// read.
func (s *setups) again(n int) error {
	if s.single {
		return nil
	}
	for i := 0; i < n; i++ {
		time.Sleep(50 * time.Millisecond)
		debug.FreeOSMemory() // as cold as the repeats in first
		start := time.Now()
		teardown, err := s.fn()
		if err != nil {
			return err
		}
		s.times = append(s.times, time.Since(start).Seconds())
		teardown()
	}
	return nil
}

// center is the reported setup_s.
func (s *setups) center() float64 { return fastMean(s.times) }

// mallocs reads the allocation counter the flit.allocs_per_kcycle
// metric is built from.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// simulate runs a simulator's warm-up and measured region, each inside
// its span, and returns the host seconds the two calls took and the
// allocations made meanwhile.
func simulate(tr *tracer, op, parent int, warmup, run func()) (seconds float64, allocs uint64) {
	m0 := mallocs()
	start := time.Now()
	sp := tr.begin("Warmup", 0, op, parent)
	warmup()
	tr.end(sp)
	sp = tr.begin("Run", 0, op, parent)
	run()
	tr.end(sp)
	seconds = time.Since(start).Seconds()
	return seconds, mallocs() - m0
}

// prefix shapes a checked prefix run: its length and the checking
// cadence (CheckInterval).
type prefix struct{ cycles, every int }

// prefixFor picks the checked prefix of the gate. Each checked cycle
// hashes every slot-table entry — ~0.75 ms on a 6x6 Hybrid-TDM network,
// ~75 ms on the 32x32 one with static 256-entry tables — so the
// always-on gate checks every 10th (6x6) or 50th (32x32) cycle; the
// rolling digest at a checked cycle still covers all history before it.
// -check runs the ISSUE's 2000 cycles, every cycle on 6x6 and every
// 10th on 32x32 (every cycle there would take five minutes).
func prefixFor(e *env, mesh32 bool) prefix {
	switch {
	case mesh32 && e.smoke:
		return prefix{50, 50}
	case mesh32 && e.full:
		return prefix{2000, 10}
	case mesh32:
		return prefix{600, 50}
	case e.smoke:
		return prefix{300, 10}
	case e.full:
		return prefix{2000, 1}
	}
	return prefix{1000, 10}
}

// prefixDigest runs a prefix of cfg under the invariant checker at the
// given worker count and returns the rolling digest and the violation
// count.
func prefixDigest(cfg hsnoc.Config, pat hsnoc.Pattern, rate float64, workers int, p prefix) (uint64, int64) {
	cfg.Workers = workers
	cfg.CheckInvariants = true
	cfg.CheckInterval = p.every
	s := hsnoc.NewSynthetic(cfg, pat, rate)
	defer s.Close()
	s.Run(p.cycles)
	return s.RollingDigest(), s.InvariantViolationCount()
}

// gatePrefix is the correctness gate of the synthetic workloads: a
// checked prefix must be violation-free and digest-equal at Workers 1
// and 2.
func gatePrefix(o *outcome, what string, cfg hsnoc.Config, pat hsnoc.Pattern, rate float64, p prefix) {
	guard(o, what+" gate", func() {
		d1, v1 := prefixDigest(cfg, pat, rate, 1, p)
		d2, v2 := prefixDigest(cfg, pat, rate, 2, p)
		if v1 != 0 || v2 != 0 {
			o.fail(1, "%s: %d/%d invariant violations at Workers 1/2 in a %d-cycle prefix", what, v1, v2, p.cycles)
		}
		if d1 != d2 {
			o.fail(1, "%s: rolling digest %016x at Workers=1 != %016x at Workers=2", what, d1, d2)
		}
	})
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
