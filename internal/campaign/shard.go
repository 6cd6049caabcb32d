package campaign

import "fmt"

// Shard identifies one contiguous slice of a spec's deterministic job
// list. Shards are the unit of fleet distribution: a coordinator
// leases shard indices, and workers re-derive the jobs locally from
// (spec, index, size) — the job list is a pure function of the
// normalized spec, so no job payloads ever cross the wire and every
// party necessarily agrees on what shard i contains.
type Shard struct {
	// Index is the 0-based shard number within the campaign.
	Index int `json:"index"`
	// Size is the campaign's shard size (jobs per shard; the last
	// shard may be shorter).
	Size int `json:"size"`
}

// NumShards is the shard count of the spec's job grid at the given
// shard size (0 for an invalid spec or non-positive size).
func (s Spec) NumShards(size int) int {
	n := s.Jobs()
	if size <= 0 || n == 0 {
		return 0
	}
	return (n-1)/size + 1 // ceil(n/size), even for a size near MaxInt
}

// ShardJobs builds shard index of the spec's deterministic job list at
// the given shard size. It runs Expand's own loop nest over just the
// shard's range (see expand), so a coordinator and any worker derive
// the same jobs for the same (spec, index, size) triple, and a lease
// costs the shard's jobs rather than the whole grid's. Only the
// shard's own configs are validated.
func (s Spec) ShardJobs(index, size int) ([]Job, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	n := s.gridSize()
	if size <= 0 {
		return nil, fmt.Errorf("campaign: shard size %d invalid", size)
	}
	// index <= (n-1)/size keeps index*size below n, so nothing overflows.
	if index < 0 || index > (n-1)/size {
		return nil, fmt.Errorf("campaign: shard %d out of range (%d jobs, size %d)", index, n, size)
	}
	lo := index * size
	return s.expand(lo, lo+min(size, n-lo))
}
