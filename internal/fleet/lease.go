package fleet

import (
	"fmt"
	"sort"
	"time"
)

// lease is one granted shard: the coordinator's record of who is
// computing what and until when.
type lease struct {
	id       string
	campaign string
	shard    int
	jobs     int
	worker   string
	deadline time.Time
}

// leaseTable tracks active leases and remembers every grant it ever
// made (tombstones), so a completion arriving after expiry — the dead
// worker that wasn't dead, the network partition that healed — can
// still be resolved to its campaign and shard. Tombstones are two
// strings and two ints per grant; a coordinator would need billions of
// leases before this matters, and forgetting them would instead turn
// late completions into discarded work.
//
// leaseTable is not self-locking: the Coordinator serialises access
// under its own mutex, which also orders lease state against campaign
// and quota state.
type leaseTable struct {
	seq     int
	active  map[string]*lease
	history map[string]lease // every grant, by id (including active)
	expired int64
}

func newLeaseTable() *leaseTable {
	return &leaseTable{active: map[string]*lease{}, history: map[string]lease{}}
}

// grant creates a lease for (campaign, shard).
func (t *leaseTable) grant(campaignID string, shard, jobs int, worker string, deadline time.Time) *lease {
	t.seq++
	l := &lease{
		id:       fmt.Sprintf("l%06d", t.seq),
		campaign: campaignID,
		shard:    shard,
		jobs:     jobs,
		worker:   worker,
		deadline: deadline,
	}
	t.active[l.id] = l
	t.history[l.id] = *l
	return l
}

// renew extends an active lease, reporting whether it still existed.
func (t *leaseTable) renew(id string, deadline time.Time) bool {
	l, ok := t.active[id]
	if !ok {
		return false
	}
	l.deadline = deadline
	return true
}

// resolve maps any lease id ever granted to its (campaign, shard),
// active or not.
func (t *leaseTable) resolve(id string) (lease, bool) {
	l, ok := t.history[id]
	return l, ok
}

// drop removes an active lease (completion or supersession). Reports
// whether it was active.
func (t *leaseTable) drop(id string) (*lease, bool) {
	l, ok := t.active[id]
	if ok {
		delete(t.active, id)
	}
	return l, ok
}

// overdue lists the ids of every active lease past its deadline, sorted
// — the caller expires them and re-queues their shards. Sorting matters:
// map iteration order is random, so several leases expiring in the same
// sweep would otherwise re-queue their shards in a different order on
// every run, and two coordinators applying the same request sequence
// (journal replay included) would make divergent WFQ decisions.
func (t *leaseTable) overdue(now time.Time) []string {
	var ids []string
	for id, l := range t.active {
		if now.After(l.deadline) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// restore reinstates a lease as active (journal replay), recording its
// tombstone as grant would.
func (t *leaseTable) restore(l lease) {
	cp := l
	t.active[l.id] = &cp
	t.history[l.id] = l
}

// remember records only the tombstone of a grant whose shard has since
// completed, so a late completion against it still resolves.
func (t *leaseTable) remember(l lease) {
	t.history[l.id] = l
}
