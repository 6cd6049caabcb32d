package fleet

// The journal makes the coordinator's campaigns survive a restart. It is
// a log of campaigns, not of leases, and holds three records: `submit`
// (written ahead of the admission), `cancel`, and `complete` for a shard
// that reported failed jobs. Everything else is derived on replay. A
// shard is done when the store holds its records — replaying a submit
// fast-completes exactly those shards, as a resubmit would — or when a
// journaled complete settled it with failures, the one outcome the store
// cannot show. Leases are soft state: a restart re-queues every shard
// that was leased, and the holder's next renew takes its shard back off
// the queue. Drain is not journaled either; a restart always serves.
//
// The file is an appendlog.Log, which owns the crash contract (one
// write per record, a torn trailer — a transition never acknowledged —
// cut at open, mid-file corruption fails the open loudly rather than
// silently dropping transitions). Every append is synced before it
// returns. The file only grows, by one line per campaign plus one per
// failed shard and one per cancel.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tdmnoc/internal/appendlog"
	"tdmnoc/internal/campaign"
)

// Journal op codes.
const (
	opSubmit   = "submit"
	opComplete = "complete"
	opCancel   = "cancel"
)

// errOldJournal refuses a record only a coordinator from before the
// journal held only campaigns wrote.
var errOldJournal = errors.New("the journal predates the campaigns-only format; empty the data dir or move it aside")

// journalRecord is one JSONL line of the journal. Fields are shared
// across ops; unused ones are omitted.
type journalRecord struct {
	Op string `json:"op"`

	// submit: the admitted campaign's identity and normalized spec.
	// cancel and complete name the campaign.
	Campaign  string         `json:"campaign,omitempty"`
	ShardSize int            `json:"shard_size,omitempty"`
	SpecHash  string         `json:"spec_hash,omitempty"`
	Spec      *campaign.Spec `json:"spec,omitempty"`

	// complete: the shard and its failed jobs (failed records are never
	// persisted to the store, so the count must ride here).
	Shard  int `json:"shard,omitempty"`
	Failed int `json:"failed,omitempty"`
}

// journal is the append side of the log. The Coordinator calls it only
// under its own mutex, so journal order equals transition order.
type journal struct {
	log    *appendlog.Log
	syncs  int64
	errors int64
}

// openJournal opens (creating if needed) the journal at path and
// returns the append handle plus the records it holds.
func openJournal(path string) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("fleet: journal dir: %w", err)
	}
	var recs []journalRecord
	log, err := appendlog.Open(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	return &journal{log: log}, recs, nil
}

// append writes one record and syncs it.
func (j *journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err == nil {
		err = j.log.Append(b, true)
	}
	if err != nil {
		j.errors++
		return fmt.Errorf("fleet: append journal record: %w", err)
	}
	j.syncs++
	return nil
}

// close syncs and releases the journal file. Idempotent.
func (j *journal) close() error {
	j.log.Sync()
	return j.log.Close()
}

// ---------------------------------------------------------------------
// Replay: journal records -> coordinator state. Replay runs before the
// coordinator is published (no locking needed) and with c.journal still
// nil, so replaying never re-journals.

// replay applies the journal's records in order through the bodies the
// live transitions use. Any structural inconsistency — an
// out-of-sequence campaign id, a spec that no longer hashes to its
// recorded fingerprint, a record naming an unknown campaign or a shard
// its campaign lacks — fails loudly: recovering wrong state would
// silently break the determinism contract, while refusing to start is
// visible and actionable. So does a record only an older coordinator
// wrote: a lease, drain or snapshot line, or a complete without failed
// jobs, which would settle a shard without the store's say-so.
func (c *Coordinator) replay(recs []journalRecord) error {
	for i, rec := range recs {
		var err error
		switch rec.Op {
		case opSubmit:
			err = c.replaySubmit(rec)
		case opComplete:
			err = errOldJournal
			if rec.Failed > 0 {
				err = c.replayComplete(rec.Campaign, rec.Shard, rec.Failed)
			}
		case opCancel:
			err = c.replayCancel(rec.Campaign)
		case "grant", "expire", "renew", "drain", "resume", "snapshot":
			err = errOldJournal
		default:
			err = fmt.Errorf("unknown op %q", rec.Op)
		}
		if err != nil {
			return fmt.Errorf("fleet: journal line %d (%s): %w", i+1, rec.Op, err)
		}
	}
	return nil
}

// replaySubmit re-admits a journaled campaign. The spec is re-hydrated
// (re-normalized and checked against its recorded hash, so version skew
// in spec semantics fails loudly instead of silently re-sharding), and
// admitLocked fast-completes every shard whose records are in the store.
func (c *Coordinator) replaySubmit(rec journalRecord) error {
	if rec.Spec == nil {
		return errors.New("submit record without spec")
	}
	want := fmt.Sprintf("c%04d", c.seq+1)
	if rec.Campaign != want {
		return fmt.Errorf("campaign id %s out of sequence (want %s)", rec.Campaign, want)
	}
	spec, err := rec.Spec.Rehydrate(rec.SpecHash)
	if err != nil {
		return err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return err
	}
	shardSize := rec.ShardSize
	if shardSize <= 0 {
		shardSize = c.opt.ShardSize
	}
	c.seq++
	c.admitLocked(rec.Campaign, shardSize, spec, jobs)
	return nil
}

// replayComplete settles a journaled shard with its failed jobs.
func (c *Coordinator) replayComplete(id string, shard, failed int) error {
	fc := c.campaigns[id]
	if fc == nil {
		return fmt.Errorf("complete names unknown campaign %s", id)
	}
	if shard < 0 || shard >= len(fc.shardKeys) {
		return fmt.Errorf("campaign %s: shard %d out of range", id, shard)
	}
	c.settleLocked(fc, shard, failed)
	return nil
}

func (c *Coordinator) replayCancel(id string) error {
	fc := c.campaigns[id]
	if fc == nil {
		return fmt.Errorf("cancel names unknown campaign %s", id)
	}
	c.cancelLocked(fc)
	return nil
}
