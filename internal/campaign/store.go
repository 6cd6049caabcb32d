package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Store persists campaign records as append-only JSONL and serves as
// the result cache: opening a store reloads every record previously
// written to the file, so an interrupted campaign resumes without
// recomputing finished jobs. Appends go straight to the file
// descriptor (no userspace buffering), so records survive a killed
// process up to the last completed line; a torn final line from a
// crash is skipped on reload and simply re-run.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	cache map[string]Record
	// lines counts every non-empty line in the backing file (including
	// duplicates from concurrent writers and re-run fleet shards); the
	// excess over len(cache) is the dead weight Compact reclaims.
	lines int
}

// OpenStore opens (creating if needed) the JSONL store at path and
// loads its existing records.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s := &Store{f: f, path: path, cache: map[string]Record{}}
	// ReadBytes instead of a Scanner: records have no line-length cap (a
	// Scanner's buffer limit would make one oversized record fail the
	// whole store open, losing resume). Only a genuinely torn trailing
	// line — unterminated, from a write cut short by a crash — is
	// skippable; an unparseable newline-terminated line means real
	// corruption and fails the open rather than silently dropping data.
	br := bufio.NewReader(f)
	for {
		line, rerr := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			s.lines++
			var r Record
			switch jerr := json.Unmarshal(trimmed, &r); {
			case jerr != nil && rerr == nil:
				f.Close()
				return nil, fmt.Errorf("campaign: store %s: corrupt record: %w", path, jerr)
			case jerr != nil:
				// Torn trailing line; its job will be recomputed.
			case r.Key != "" && r.Err == "":
				s.cache[r.Key] = r
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			f.Close()
			return nil, fmt.Errorf("campaign: read store %s: %w", path, rerr)
		}
	}
	return s, nil
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

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
	if r.Err != "" {
		return fmt.Errorf("campaign: refusing to persist failed record %s", r.Key)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("campaign: encode record: %w", err)
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("campaign: store %s is closed", s.path)
	}
	if _, err := s.f.Write(b); err != nil {
		return fmt.Errorf("campaign: append record: %w", err)
	}
	s.lines++
	s.cache[r.Key] = r
	return nil
}

// AppendNew persists the record only when its key is not already
// cached, reporting whether a write happened. This is the
// content-addressed dedup the fleet path relies on: records are pure
// functions of their jobs, so a second record for a cached key (a
// re-leased shard completed twice, two workers racing) is byte-equal
// to the first and persisting it would only create dead weight.
func (s *Store) AppendNew(r Record) (bool, error) {
	s.mu.Lock()
	_, dup := s.cache[r.Key]
	s.mu.Unlock()
	if dup {
		return false, nil
	}
	if err := s.Append(r); err != nil {
		return false, err
	}
	return true, nil
}

// Dead reports how many persisted lines are no longer live records —
// duplicates from concurrent writers plus torn trailers. The fleet
// coordinator compacts a shard when this grows past its live count.
func (s *Store) Dead() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines - len(s.cache)
}

// Compact rewrites the backing file to exactly the live records, in
// key order, dropping duplicate and torn lines. The rewrite goes
// through a temp file and a rename, so a crash mid-compaction leaves
// either the old file or the new one — never a half-written store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("campaign: store %s is closed", s.path)
	}
	keys := make([]string, 0, len(s.cache))
	for k := range s.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tmp := s.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, k := range keys {
		b, err := json.Marshal(s.cache[k])
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("campaign: compact store: encode %s: %w", k, err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	// Without the fsync the rename can reach the disk before the data,
	// and a crash then leaves an empty or truncated store under s.path.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	nf, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but we lost the append handle;
		// surface it — subsequent Appends would fail anyway.
		return fmt.Errorf("campaign: reopen compacted store: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.lines = len(s.cache)
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
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
