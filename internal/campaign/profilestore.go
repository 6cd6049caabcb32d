package campaign

import (
	"encoding/json"
	"fmt"
	"sync"

	"tdmnoc/internal/appendlog"
	"tdmnoc/internal/policy"
)

// profileLine is one persisted profile: the job-derived cache key plus
// the extracted traffic profile.
type profileLine struct {
	Key     string          `json:"key"`
	Profile *policy.Profile `json:"profile"`
}

// ProfileStore persists extracted traffic profiles as append-only JSONL,
// mirroring the result Store: profiles are pure functions of their jobs
// (byte-identical at any worker count), so a cached profile is
// interchangeable with a fresh extraction and an interrupted policy
// campaign resumes its phase-A work. Keys are ProfileKey(job, every).
type ProfileStore struct {
	mu    sync.Mutex
	log   *appendlog.Log
	cache map[string]*policy.Profile
}

// ProfileKey names the profile of one base job at one sampling interval.
// The interval is part of the key because it changes the recorder's
// window series (though not the flow aggregates), so profiles from
// different intervals are kept distinct rather than silently shared.
func ProfileKey(j Job, every int) string {
	return fmt.Sprintf("%s|profile|%d", j.Key, every)
}

// OpenProfileStore opens (creating if needed) the JSONL profile store
// at path and loads its existing profiles.
func OpenProfileStore(path string) (*ProfileStore, error) {
	s := &ProfileStore{cache: map[string]*policy.Profile{}}
	log, err := appendlog.Open(path, func(line []byte) error {
		var p profileLine
		if err := json.Unmarshal(line, &p); err != nil {
			return err
		}
		if p.Key != "" && p.Profile != nil {
			s.cache[p.Key] = p.Profile
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: open profile store: %w", err)
	}
	s.log = log
	return s, nil
}

// Path returns the backing file path.
func (s *ProfileStore) Path() string { return s.log.Path() }

// Len is the number of cached profiles.
func (s *ProfileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Lookup returns the cached profile for key.
func (s *ProfileStore) Lookup(key string) (*policy.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.cache[key]
	return p, ok
}

// Append persists one profile unless its key is already cached
// (profiles are content-addressed: a duplicate would be byte-equal).
func (s *ProfileStore) Append(key string, p *policy.Profile) error {
	if key == "" || p == nil {
		return fmt.Errorf("campaign: refusing to persist empty profile")
	}
	b, err := json.Marshal(profileLine{Key: key, Profile: p})
	if err != nil {
		return fmt.Errorf("campaign: encode profile: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cache[key]; dup {
		return nil
	}
	if err := s.log.Append(b, false); err != nil {
		return fmt.Errorf("campaign: append profile: %w", err)
	}
	s.cache[key] = p
	return nil
}

// Close releases the backing file. Lookups keep working from memory.
func (s *ProfileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
