package campaign

import (
	"fmt"
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
	// log counts every non-blank line in the backing file. Appends
	// through one handle never repeat a key, so the excess over
	// len(cache) is lines another process wrote into the same file.
	log   *appendlog.Log
	cache map[string]Record
}

// OpenStore opens (creating if needed) the JSONL store at path and
// loads its existing records.
func OpenStore(path string) (*Store, error) {
	s := &Store{cache: map[string]Record{}}
	log, err := appendlog.Open(path, func(line []byte) error {
		r, err := DecodeRecord(line)
		if err != nil {
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

// Append persists one record (and caches it) unless its key is already
// cached. Records are pure functions of their jobs, so a second record
// for a cached key (a re-leased shard completed twice, two workers
// racing) is byte-equal to the first and is not written. Records with
// Err set are rejected: failures must be retried, not replayed.
func (s *Store) Append(r Record) error {
	_, err := s.append(r)
	return err
}

// append is Append, reporting whether a write happened. It encodes
// outside the lock, then checks for a duplicate and writes under one
// acquisition: two racing appends for one key must not both see it
// missing.
func (s *Store) append(r Record) (bool, error) {
	if r.Err != "" {
		return false, fmt.Errorf("campaign: refusing to persist failed record %s", r.Key)
	}
	// Room for a synthetic record and the log's newline: one allocation.
	b, err := r.AppendJSON(make([]byte, 0, 512))
	if err != nil {
		return false, fmt.Errorf("campaign: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cache[r.Key]; dup {
		return false, nil
	}
	if err := s.log.Append(b, false); err != nil {
		return false, fmt.Errorf("campaign: append record: %w", err)
	}
	s.cache[r.Key] = r
	return true, nil
}

// Dead reports how many persisted lines are not live records. Append
// never writes one, so they arise only when two processes shared the
// file; Open deduplicates them and nothing rewrites them away.
func (s *Store) Dead() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Lines() - len(s.cache)
}

// Close releases the backing file. Lookups keep working from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
