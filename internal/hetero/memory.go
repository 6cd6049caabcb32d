package hetero

import (
	"tdmnoc/internal/flit"
	"tdmnoc/internal/network"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/tablei"
	"tdmnoc/internal/topology"
)

// Table II memory-system parameters.
const (
	// L2AccessLatency is the banked shared L2's access time (8 cycles).
	L2AccessLatency = 8
	// DRAMLatency is the off-chip access time (200 cycles).
	DRAMLatency = 200
	// DefaultL2HitRate is the shared-cache hit probability used by the
	// bank model (the paper does not publish per-benchmark hit rates).
	DefaultL2HitRate = 0.75
)

// deferredSend is a reply scheduled for a future cycle.
type deferredSend struct {
	due  sim.Cycle
	dst  topology.NodeID
	opt  network.SendOptions
	hint int
}

// missRecord remembers an L2 miss forwarded to a memory controller so the
// eventual DRAM reply can be routed back to the original requester.
type missRecord struct {
	requester topology.NodeID
	class     flit.TrafficClass
	slack     int
	reqID     uint64
}

// L2Bank is one bank of the 16 MB shared distributed L2 (Table II). Read
// requests hit with probability HitRate and are answered after the bank
// access latency; misses are forwarded to the nearest memory controller
// and answered when DRAM responds.
type L2Bank struct {
	layout  *Layout
	id      topology.NodeID
	HitRate float64

	queue  []deferredSend
	misses map[uint64]missRecord

	// Requests counts read requests served (for sanity checks).
	Requests int64
}

// NewL2Bank builds the bank at tile id.
func NewL2Bank(layout *Layout, id topology.NodeID) *L2Bank {
	return &L2Bank{layout: layout, id: id, HitRate: DefaultL2HitRate, misses: map[uint64]missRecord{}}
}

// Tick implements network.Endpoint: flush due replies.
func (b *L2Bank) Tick(now sim.Cycle, ni *network.NI) {
	b.queue = flushDue(b.queue, now, ni)
}

// OnDeliver implements network.Endpoint.
func (b *L2Bank) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {
	if rec, ok := b.misses[pkt.ReqID]; ok && pkt.ReplyFlits == 0 {
		// DRAM fill for an earlier miss: forward to the requester.
		delete(b.misses, pkt.ReqID)
		b.queue = append(b.queue, deferredSend{
			due: now + L2AccessLatency,
			dst: rec.requester,
			opt: network.SendOptions{
				Class:   rec.class,
				AllowCS: rec.class == flit.ClassGPU,
				Slack:   rec.slack,
				ReqID:   rec.reqID,
			},
		})
		return
	}
	if pkt.ReplyFlits == 0 {
		return // store: absorbed by the bank
	}
	b.Requests++
	slack := pkt.SlackHint
	if ni.RNG().Bernoulli(b.HitRate) {
		b.queue = append(b.queue, deferredSend{
			due: now + L2AccessLatency,
			dst: pkt.Src,
			opt: network.SendOptions{
				Class:   pkt.Class,
				AllowCS: pkt.Class == flit.ClassGPU,
				Slack:   slack,
				ReqID:   pkt.ID,
			},
			hint: slack,
		})
		return
	}
	// Miss: ask the nearest memory controller (1-flit request) and
	// remember who wanted the line.
	mc := b.layout.NearestMC(b.id)
	req := ni.Send(now, mc, network.SendOptions{
		Class:      pkt.Class,
		AllowCS:    false, // cache-to-MC control traffic stays packet-switched
		ReplyFlits: tablei.PSDataFlits,
		SizeFlits:  1,
	})
	b.misses[req.ID] = missRecord{requester: pkt.Src, class: pkt.Class, slack: slack, reqID: pkt.ID}
}

// MemController is one of the four DRAM channels of Table II: every read
// request is answered with a data packet after the fixed DRAM latency.
type MemController struct {
	queue []deferredSend
	// Requests counts DRAM reads served.
	Requests int64
}

// NewMemController builds a controller.
func NewMemController() *MemController { return &MemController{} }

// Tick implements network.Endpoint.
func (m *MemController) Tick(now sim.Cycle, ni *network.NI) {
	m.queue = flushDue(m.queue, now, ni)
}

// OnDeliver implements network.Endpoint.
func (m *MemController) OnDeliver(now sim.Cycle, ni *network.NI, pkt *flit.Packet) {
	if pkt.ReplyFlits == 0 {
		return // writeback: absorbed
	}
	m.Requests++
	m.queue = append(m.queue, deferredSend{
		due: now + DRAMLatency,
		dst: pkt.Src,
		opt: network.SendOptions{
			Class: pkt.Class,
			ReqID: pkt.ID,
		},
	})
}

// flushDue sends every deferred reply whose time has come and returns the
// remaining queue. Replies are kept in arrival order, so the in-place
// filter preserves determinism.
func flushDue(q []deferredSend, now sim.Cycle, ni *network.NI) []deferredSend {
	out := q[:0]
	for _, d := range q {
		if d.due > now {
			out = append(out, d)
			continue
		}
		p := ni.Send(now, d.dst, d.opt)
		p.SlackHint = d.hint
	}
	return out
}
