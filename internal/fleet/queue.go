package fleet

// Equal-share shard dispatch via stride scheduling. Each campaign
// carries a virtual-time pass; every grant advances the campaign's
// pass by strideUnit, and the dispatcher always serves the runnable
// campaign with the smallest pass (ties broken by campaign id so two
// coordinators replaying the same request sequence make the same
// choices). Every runnable campaign therefore gets an equal share of
// grants regardless of its size — a million-job sweep cannot starve a
// ten-job probe, it just advances its own pass a million times.
//
// The outstanding-jobs cap bounds admission, not dispatch (see
// Coordinator.admissibleLocked); fairness between admitted campaigns
// is the stride scheduler's job.

const strideUnit = 1 << 20

// queueEntry is the per-campaign scheduling state.
type queueEntry struct {
	id      string
	pass    float64
	pending []int // shard indices awaiting lease, FIFO
}

// wfq is the stride scheduler across campaigns with pending shards.
// Not self-locking; the Coordinator serialises access.
type wfq struct {
	entries map[string]*queueEntry
	// vtime tracks the pass of the most recent grant, so a campaign
	// admitted mid-run starts at the current virtual time instead of
	// monopolising the fleet while it catches up from zero.
	vtime float64
}

func newWFQ() *wfq { return &wfq{entries: map[string]*queueEntry{}} }

// add registers a campaign at the current virtual time with its
// initial pending shard list.
func (q *wfq) add(id string, pending []int) {
	q.entries[id] = &queueEntry{id: id, pass: q.vtime, pending: pending}
}

// push re-queues a shard (lease expiry). Expired shards go to the
// front: they have already waited a full lease TTL, and re-running
// them promptly keeps campaign tail latency bounded by one death, not
// one death per queue drain.
func (q *wfq) push(id string, shard int) {
	e, ok := q.entries[id]
	if !ok {
		return
	}
	e.pending = append([]int{shard}, e.pending...)
}

// pick returns the campaign to serve next — smallest pass among those
// with pending work, ties by id — and pops its head shard, advancing
// its pass. ok is false when no campaign has pending shards.
func (q *wfq) pick() (id string, shard int, ok bool) {
	var best *queueEntry
	for _, e := range q.entries {
		if len(e.pending) == 0 {
			continue
		}
		if best == nil || e.pass < best.pass || (e.pass == best.pass && e.id < best.id) {
			best = e
		}
	}
	if best == nil {
		return "", 0, false
	}
	shard = best.pending[0]
	best.pending = best.pending[1:]
	best.pass += strideUnit
	q.vtime = best.pass
	return best.id, shard, true
}

// grant removes a specific shard from a campaign's pending list and
// advances the campaign's pass exactly as pick would — the journal-
// replay analogue of a grant, which must reproduce pick's scheduling
// side effects without re-running its selection (the journal already
// recorded which shard won).
func (q *wfq) grant(id string, shard int) {
	if q.take(id, shard) {
		e := q.entries[id]
		e.pass += strideUnit
		q.vtime = e.pass
	}
}

// take removes a specific shard from a campaign's pending list (a
// late completion landed while the shard sat re-queued, or a replayed
// grant), reporting whether it was there.
func (q *wfq) take(id string, shard int) bool {
	e, ok := q.entries[id]
	if !ok {
		return false
	}
	for i, s := range e.pending {
		if s == shard {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return true
		}
	}
	return false
}

// depth is the total count of shards awaiting lease.
func (q *wfq) depth() int {
	n := 0
	for _, e := range q.entries {
		n += len(e.pending)
	}
	return n
}

// remove drops a campaign from scheduling (all shards done).
func (q *wfq) remove(id string) { delete(q.entries, id) }
