// Package stats collects per-node simulation statistics and aggregates
// them into the metrics the paper reports: average packet latency,
// accepted throughput (flits/node/cycle), circuit-switched flit fraction,
// configuration-traffic overhead, and energy roll-ups.
//
// Each network interface owns a private Collector so the parallel
// executor never shares counters across goroutines; Merge combines them
// at report time.
package stats

import "tdmnoc/internal/flit"

// Collector accumulates one node's traffic statistics. The zero value is
// ready to use. Collection is gated by Enabled so warm-up traffic can be
// excluded, matching the paper's 1000-packet warm-up.
type Collector struct {
	// Enabled gates accumulation (set after warm-up).
	Enabled bool

	// Data packet accounting.
	InjectedPackets int64
	EjectedPackets  int64
	InjectedFlits   int64
	EjectedFlits    int64

	// Ejected data flits by switching mode.
	CSFlits int64
	PSFlits int64

	// Latency sums over ejected data packets (cycles).
	NetLatencySum   int64 // injection to ejection
	TotalLatencySum int64 // creation to ejection (includes source queueing)
	LatencyCount    int64

	// Per-class latency (heterogeneous evaluation).
	ClassLatencySum   [4]int64
	ClassLatencyCount [4]int64
	ClassEjected      [4]int64
	ClassFlits        [4]int64
	ClassCSFlits      [4]int64

	// Configuration traffic.
	SetupsSent      int64
	SetupsOK        int64
	SetupsFailed    int64
	TeardownsSent   int64
	ConfigEjected   int64 // config packets consumed at this node
	ConfigFlitsSent int64

	// Path sharing.
	Hitchhikes         int64 // messages that rode another source's circuit
	VicinityRides      int64 // messages that hopped off near their destination
	ShareContentions   int64 // sharing attempts abandoned due to contention
	OwnCircuitSends    int64 // messages sent on this node's own circuits
	CircuitsRegistered int64
	CircuitsTorndown   int64
}

// RecordInjection notes a data packet entering the network.
func (c *Collector) RecordInjection(p *flit.Packet) {
	if !c.Enabled {
		return
	}
	c.InjectedPackets++
	c.InjectedFlits += int64(p.Flits)
}

// RecordEjection notes a data packet fully received at this node.
func (c *Collector) RecordEjection(p *flit.Packet) {
	if !c.Enabled {
		return
	}
	c.EjectedPackets++
	c.EjectedFlits += int64(p.Flits)
	if p.Switching == flit.CircuitSwitched {
		c.CSFlits += int64(p.Flits)
		c.ClassCSFlits[int(p.Class)] += int64(p.Flits)
	} else {
		c.PSFlits += int64(p.Flits)
	}
	c.ClassFlits[int(p.Class)] += int64(p.Flits)
	if nl := p.NetworkLatency(); nl >= 0 {
		tl := p.TotalLatency()
		c.NetLatencySum += nl
		c.TotalLatencySum += tl
		c.LatencyCount++
		cl := int(p.Class)
		c.ClassLatencySum[cl] += tl
		c.ClassLatencyCount[cl]++
	}
	c.ClassEjected[int(p.Class)]++
}

// Merge adds o into c.
func (c *Collector) Merge(o *Collector) {
	c.InjectedPackets += o.InjectedPackets
	c.EjectedPackets += o.EjectedPackets
	c.InjectedFlits += o.InjectedFlits
	c.EjectedFlits += o.EjectedFlits
	c.CSFlits += o.CSFlits
	c.PSFlits += o.PSFlits
	c.NetLatencySum += o.NetLatencySum
	c.TotalLatencySum += o.TotalLatencySum
	c.LatencyCount += o.LatencyCount
	for i := range c.ClassLatencySum {
		c.ClassLatencySum[i] += o.ClassLatencySum[i]
		c.ClassLatencyCount[i] += o.ClassLatencyCount[i]
		c.ClassEjected[i] += o.ClassEjected[i]
		c.ClassFlits[i] += o.ClassFlits[i]
		c.ClassCSFlits[i] += o.ClassCSFlits[i]
	}
	c.SetupsSent += o.SetupsSent
	c.SetupsOK += o.SetupsOK
	c.SetupsFailed += o.SetupsFailed
	c.TeardownsSent += o.TeardownsSent
	c.ConfigEjected += o.ConfigEjected
	c.ConfigFlitsSent += o.ConfigFlitsSent
	c.Hitchhikes += o.Hitchhikes
	c.VicinityRides += o.VicinityRides
	c.ShareContentions += o.ShareContentions
	c.OwnCircuitSends += o.OwnCircuitSends
	c.CircuitsRegistered += o.CircuitsRegistered
	c.CircuitsTorndown += o.CircuitsTorndown
}

// AvgNetLatency returns the mean injection-to-ejection latency in cycles,
// or 0 with ok=false when no packets completed.
func (c *Collector) AvgNetLatency() (float64, bool) {
	if c.LatencyCount == 0 {
		return 0, false
	}
	return float64(c.NetLatencySum) / float64(c.LatencyCount), true
}

// AvgTotalLatency returns the mean creation-to-ejection latency in cycles.
func (c *Collector) AvgTotalLatency() (float64, bool) {
	if c.LatencyCount == 0 {
		return 0, false
	}
	return float64(c.TotalLatencySum) / float64(c.LatencyCount), true
}

// Throughput returns accepted flits per node per cycle.
func (c *Collector) Throughput(nodes int, cycles int64) float64 {
	if nodes == 0 || cycles == 0 {
		return 0
	}
	return float64(c.EjectedFlits) / (float64(nodes) * float64(cycles))
}

// PayloadThroughput returns accepted traffic normalised to
// packet-switched flit equivalents (packets times the packet-switched
// packet length, per node per cycle). A circuit-switched packet carries
// the same 64-byte cache line in 4 flits instead of 5, so raw flit
// throughput would undercount the hybrid network's delivered payload.
func (c *Collector) PayloadThroughput(psFlitsPerPacket, nodes int, cycles int64) float64 {
	if nodes == 0 || cycles == 0 {
		return 0
	}
	return float64(c.EjectedPackets*int64(psFlitsPerPacket)) / (float64(nodes) * float64(cycles))
}

// CSFlitFraction is the fraction of ejected data flits that travelled
// circuit-switched (Table III's right column).
func (c *Collector) CSFlitFraction() float64 {
	total := c.CSFlits + c.PSFlits
	if total == 0 {
		return 0
	}
	return float64(c.CSFlits) / float64(total)
}

// ClassCSFraction is the circuit-switched flit fraction for one traffic
// class (Table III reports it for GPU traffic).
func (c *Collector) ClassCSFraction(class flit.TrafficClass) float64 {
	if c.ClassFlits[int(class)] == 0 {
		return 0
	}
	return float64(c.ClassCSFlits[int(class)]) / float64(c.ClassFlits[int(class)])
}

// ConfigTrafficFraction is configuration flits as a fraction of all flits
// sent (the paper observes it stays below 1 %).
func (c *Collector) ConfigTrafficFraction() float64 {
	total := c.InjectedFlits + c.ConfigFlitsSent
	if total == 0 {
		return 0
	}
	return float64(c.ConfigFlitsSent) / float64(total)
}
