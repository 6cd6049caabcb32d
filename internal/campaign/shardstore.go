package campaign

import (
	"fmt"
	"os"
	"path/filepath"
)

// storeShards is the fan-out of a ShardedStore: 16 JSONL files keyed
// by the first hex nibble of the record key. Records keys are SHA-256
// over the canonical job identity, so the nibble spreads uniformly and
// each file carries ~1/16 of the campaign.
const storeShards = 16

// ShardedStore is the fleet-scale result store: a content-addressed
// record cache fanned across storeShards append-only JSONL files by
// key prefix. Each shard file is a Store, with its appendlog crash
// contract and its per-key dedup, so a re-leased fleet shard completed
// twice writes each record once.
type ShardedStore struct {
	dir    string
	shards [storeShards]*Store
}

// OpenShardedStore opens (creating if needed) the sharded store rooted
// at dir, reloading every shard file.
func OpenShardedStore(dir string) (*ShardedStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: sharded store: %w", err)
	}
	ss := &ShardedStore{dir: dir}
	for i := range ss.shards {
		st, err := OpenStore(filepath.Join(dir, fmt.Sprintf("shard-%x.jsonl", i)))
		if err != nil {
			for j := 0; j < i; j++ {
				ss.shards[j].Close()
			}
			return nil, err
		}
		ss.shards[i] = st
	}
	return ss, nil
}

// Dir returns the root directory of the shard files.
func (ss *ShardedStore) Dir() string { return ss.dir }

// shardFor routes a record key to its shard by first hex nibble. Keys
// are lowercase hex SHA-256 strings; anything else lands in shard 0
// (and would only arise from a corrupted caller, not normal traffic).
func (ss *ShardedStore) shardFor(key string) *Store {
	if len(key) == 0 {
		return ss.shards[0]
	}
	c := key[0]
	switch {
	case c >= '0' && c <= '9':
		return ss.shards[c-'0']
	case c >= 'a' && c <= 'f':
		return ss.shards[10+c-'a']
	}
	return ss.shards[0]
}

// Lookup returns the cached record for key, marked Cached.
func (ss *ShardedStore) Lookup(key string) (Record, bool) {
	return ss.shardFor(key).Lookup(key)
}

// Append persists the record into its shard unless the key is already
// present, reporting whether a write happened. Failed records are
// rejected (Store.Append's contract).
func (ss *ShardedStore) Append(r Record) (bool, error) {
	return ss.shardFor(r.Key).append(r)
}

// Len is the total live record count across shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, st := range ss.shards {
		n += st.Len()
	}
	return n
}

// Dead is the total dead-line count across shards (see Store.Dead).
func (ss *ShardedStore) Dead() int {
	n := 0
	for _, st := range ss.shards {
		n += st.Dead()
	}
	return n
}

// LookupAll resolves a job-key list against the store, returning the
// records found and the count missing. The fleet coordinator uses it
// to serve campaign results and to fast-complete shards whose jobs a
// previous campaign already computed.
func (ss *ShardedStore) LookupAll(keys []string) (found []Record, missing int) {
	for _, k := range keys {
		if r, ok := ss.Lookup(k); ok {
			found = append(found, r)
		} else {
			missing++
		}
	}
	return found, missing
}

// Close releases every shard file. Lookups keep working from memory.
func (ss *ShardedStore) Close() error {
	var first error
	for _, st := range ss.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
