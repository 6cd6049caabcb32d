package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"tdmnoc/internal/appendlog"
)

// Store persists campaign records as append-only JSONL and serves as
// the result cache: opening a store reloads every record previously
// written to the file, so an interrupted campaign resumes without
// recomputing finished jobs. The file is an appendlog.Log, which owns
// the crash contract (unbuffered appends, torn trailer cut at open so
// its job is simply re-run, mid-file corruption fails the open); the
// store adds the key→record cache and the dedup on top. Appends are
// never fsync'd: records are recomputable, so a lost tail costs time,
// not correctness.
type Store struct {
	mu sync.Mutex
	// log counts every non-blank line in the backing file (including
	// duplicates from concurrent writers and re-run fleet shards); the
	// excess over len(cache) is the dead weight Compact reclaims.
	log   *appendlog.Log
	cache map[string]Record
}

// OpenStore opens (creating if needed) the JSONL store at path and
// loads its existing records.
func OpenStore(path string) (*Store, error) {
	s := &Store{cache: map[string]Record{}}
	log, err := appendlog.Open(path, func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Key != "" && r.Err == "" {
			s.cache[r.Key] = r
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s.log = log
	return s, nil
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.log.Path() }

// Len is the number of cached records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Lookup returns the cached record for key, marked Cached.
func (s *Store) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cache[key]
	if ok {
		r.Cached = true
	}
	return r, ok
}

// Append persists one record (and caches it). Records with Err set are
// rejected: failures must be retried, not replayed.
func (s *Store) Append(r Record) error {
	_, err := s.append(r, false)
	return err
}

// AppendNew persists the record only when its key is not already
// cached, reporting whether a write happened. This is the
// content-addressed dedup the fleet path relies on: records are pure
// functions of their jobs, so a second record for a cached key (a
// re-leased shard completed twice, two workers racing) is byte-equal
// to the first and persisting it would only create dead weight.
func (s *Store) AppendNew(r Record) (bool, error) { return s.append(r, true) }

// append encodes outside the lock, then checks for a duplicate and
// writes under one acquisition — two racing AppendNew calls for one key
// must not both see it missing.
func (s *Store) append(r Record, onlyNew bool) (bool, error) {
	if r.Err != "" {
		return false, fmt.Errorf("campaign: refusing to persist failed record %s", r.Key)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return false, fmt.Errorf("campaign: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cache[r.Key]; dup && onlyNew {
		return false, nil
	}
	if err := s.log.Append(b, false); err != nil {
		return false, fmt.Errorf("campaign: append record: %w", err)
	}
	s.cache[r.Key] = r
	return true, nil
}

// Dead reports how many persisted lines are no longer live records —
// duplicates from concurrent writers and superseded re-runs. The fleet
// coordinator compacts a shard when this grows past its live count.
func (s *Store) Dead() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Lines() - len(s.cache)
}

// Compact rewrites the backing file to exactly the live records, in
// key order, dropping duplicate lines (atomically: see
// appendlog.Log.Rewrite).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cache))
	for k := range s.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	err := s.log.Rewrite(len(keys), func(i int) ([]byte, error) {
		return json.Marshal(s.cache[keys[i]])
	})
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	return nil
}

// Records returns a copy of every cached record (order unspecified).
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.cache))
	for _, r := range s.cache {
		out = append(out, r)
	}
	return out
}

// Close releases the backing file. Lookups keep working from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
