package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// stubRunner returns instantly with a deterministic record derived
// from the job rate, so store tests never simulate.
func stubRunner(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
	return stats.RunRecord{Runs: 1, Packets: int64(j.Rate * 1000)}, nil, nil
}

// TestConcurrentEnginesMergeIdempotentlyOnReload is the concurrent-
// writer contract: two engines with independent store handles on the
// same file, running overlapping job lists at the same time, may both
// append records for the same config hash. On reload the duplicates
// must collapse to one record per key: the cache merges idempotently.
func TestConcurrentEnginesMergeIdempotentlyOnReload(t *testing.T) {
	spec := Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"transpose"},
		Meshes:        []MeshSize{{Width: 4, Height: 4}},
		Rates:         []float64{0.05, 0.10, 0.15, 0.20},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  100,
		MeasureCycles: 200,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shared.jsonl")

	// Two handles on one file: neither sees the other's cache, so the
	// overlapping half of the job lists is written twice.
	sa, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ea := New(Options{Workers: 2, Runner: stubRunner, Store: sa})
	eb := New(Options{Workers: 2, Runner: stubRunner, Store: sb})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ea.Run(context.Background(), jobs[:6]) // jobs 0-5
	}()
	go func() {
		defer wg.Done()
		eb.Run(context.Background(), jobs[2:]) // jobs 2-7: overlaps 2-5
	}()
	wg.Wait()
	sa.Close()
	sb.Close()

	reloaded, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reload after concurrent writers: %v", err)
	}
	defer reloaded.Close()
	if reloaded.Len() != len(jobs) {
		t.Fatalf("reloaded %d records, want %d (duplicates must merge)", reloaded.Len(), len(jobs))
	}
	for _, j := range jobs {
		r, ok := reloaded.Lookup(j.Key)
		if !ok {
			t.Fatalf("job %s missing after reload", j.Label)
		}
		if r.Result.Runs != 1 {
			t.Fatalf("job %s: Runs = %d, want 1 (records must not double-merge)", j.Label, r.Result.Runs)
		}
	}
	if reloaded.Dead() == 0 {
		t.Fatal("expected dead lines from the overlapping writes")
	}
}

// seedShardedStore writes n records with uniformly spread key prefixes
// and returns their keys.
func seedShardedStore(t *testing.T, ss *ShardedStore, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%x%063x", i%16, i)
		keys[i] = key
		wrote, err := ss.Append(Record{Key: key, Mode: "tdm", Pattern: "ur", Rate: 0.1, Result: stats.RunRecord{Runs: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !wrote {
			t.Fatalf("record %d unexpectedly deduped", i)
		}
	}
	return keys
}

func TestShardedStoreRoutesAndReloads(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := seedShardedStore(t, ss, 64)
	if ss.Len() != 64 {
		t.Fatalf("Len = %d, want 64", ss.Len())
	}
	ss.Close()

	// All 16 shard files exist and each carries its slice.
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != storeShards {
		t.Fatalf("found %d shard files, want %d", len(files), storeShards)
	}

	reloaded, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	found, missing := reloaded.LookupAll(keys)
	if missing != 0 || len(found) != len(keys) {
		t.Fatalf("LookupAll found %d missing %d, want %d/0", len(found), missing, len(keys))
	}
}

// TestShardedStoreSkipsTornTrailingLine: a crash mid-append leaves an
// unterminated line in one shard file; reload drops just that record.
func TestShardedStoreSkipsTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedShardedStore(t, ss, 32)
	ss.Close()

	shardPath := filepath.Join(dir, "shard-3.jsonl")
	f, err := os.OpenFile(shardPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"3abc","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reloaded, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatalf("reload with torn trailer: %v", err)
	}
	defer reloaded.Close()
	if reloaded.Len() != 32 {
		t.Fatalf("Len = %d, want 32 (torn line skipped, not loaded)", reloaded.Len())
	}
	// The torn line is cut off the file at open, not carried as dead
	// weight for the next append to fuse with.
	if reloaded.Dead() != 0 {
		t.Fatalf("Dead = %d, want 0 (torn trailer cut at open)", reloaded.Dead())
	}
	if b, err := os.ReadFile(shardPath); err != nil || len(b) == 0 || b[len(b)-1] != '\n' {
		t.Fatalf("shard does not end on a line boundary after reload (err %v): %q", err, b[max(0, len(b)-40):])
	}
}

// TestShardedStoreFailsOnMidFileCorruption: a newline-terminated
// garbage line in the middle of a shard is real corruption, not a
// crash artifact — the open must fail loudly instead of silently
// dropping data.
func TestShardedStoreFailsOnMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedShardedStore(t, ss, 32)
	ss.Close()

	shardPath := filepath.Join(dir, "shard-5.jsonl")
	b, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 2 {
		t.Fatalf("shard 5 has %d lines; need 2+ to corrupt the middle", len(lines))
	}
	lines[0] = "{garbage not json}\n"
	if err := os.WriteFile(shardPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenShardedStore(dir); err == nil {
		t.Fatal("expected OpenShardedStore to fail on mid-file corruption")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}

// TestTornTrailerThenAppendSurvivesReopen is the scenario the stores
// exist for, through each public front-end: a crash tears the last
// append, the campaign is resumed on the same file and appends again,
// and the next open must find every intact record plus the new one.
// (Skipping the torn bytes instead of cutting them glues the next record
// onto the fragment: that record is lost and every later open fails with
// a corrupt line.)
func TestTornTrailerThenAppendSurvivesReopen(t *testing.T) {
	const torn = `{"key":"3abc","resu`
	tear := func(t *testing.T, path string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
	}
	rec := func(key string) Record { return Record{Key: key, Result: stats.RunRecord{Runs: 1}} }
	key := func(i int) string { return fmt.Sprintf("3%063x", i) } // all in shard 3

	for name, fe := range map[string]struct {
		file string // the file to tear, relative to the temp dir
		// open returns append/has/close over the front-end at dir.
		open func(dir string) (add func(string) error, has func(string) bool, close func() error, err error)
	}{
		"OpenStore": {"s.jsonl", func(dir string) (func(string) error, func(string) bool, func() error, error) {
			st, err := OpenStore(filepath.Join(dir, "s.jsonl"))
			if err != nil {
				return nil, nil, nil, err
			}
			return func(k string) error { return st.Append(rec(k)) },
				func(k string) bool { _, ok := st.Lookup(k); return ok && st.Dead() == 0 }, st.Close, nil
		}},
		"OpenShardedStore": {"shard-3.jsonl", func(dir string) (func(string) error, func(string) bool, func() error, error) {
			ss, err := OpenShardedStore(dir)
			if err != nil {
				return nil, nil, nil, err
			}
			return func(k string) error { _, err := ss.Append(rec(k)); return err },
				func(k string) bool { _, ok := ss.Lookup(k); return ok && ss.Dead() == 0 }, ss.Close, nil
		}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			add, _, closeFn, err := fe.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := add(key(i)); err != nil {
					t.Fatal(err)
				}
			}
			closeFn()
			tear(t, filepath.Join(dir, fe.file))

			add, _, closeFn, err = fe.open(dir)
			if err != nil {
				t.Fatalf("resume over torn trailer: %v", err)
			}
			if err := add(key(3)); err != nil {
				t.Fatalf("append after resume: %v", err)
			}
			closeFn()

			_, has, closeFn, err := fe.open(dir)
			if err != nil {
				t.Fatalf("open after torn trailer + append: %v", err)
			}
			defer closeFn()
			for i := 0; i <= 3; i++ {
				if !has(key(i)) {
					t.Errorf("record %d missing (or dead lines present) after torn trailer + append", i)
				}
			}
		})
	}
}

// TestAppendNewConcurrentSameKey: the fleet persists completions outside
// the coordinator lock, so two completions of one re-leased shard can
// race Append on the same key. Exactly one may write, so the file holds
// one line; a check-then-append split across two lock acquisitions lets
// both through and leaves a dead line. Run under -race.
func TestAppendNewConcurrentSameKey(t *testing.T) {
	for round := 0; round < 50; round++ {
		st, err := OpenStore(filepath.Join(t.TempDir(), "race.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := st.Append(Record{Key: "same", Result: stats.RunRecord{Runs: 1}}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if st.Dead() != 0 || st.Len() != 1 {
			t.Fatalf("round %d: Dead = %d, Len = %d; want one line written, 0/1", round, st.Dead(), st.Len())
		}
		st.Close()
	}
}
