package campaign

import (
	"cmp"
	"math"
	"reflect"
	"testing"
)

// shardSpecs are small grids covering every way Expand's loop nest
// collapses or re-keys an axis: the slot-table axis for packet and sdm,
// the rate axis for mixes, and telemetry_every, which re-keys every job.
func shardSpecs() map[string]Spec {
	quick := func(s Spec) Spec {
		s.WarmupCycles, s.MeasureCycles = 100, 100
		return s
	}
	return map[string]Spec{
		"tdm ur": quick(Spec{Modes: []string{"tdm"}, Patterns: []string{"ur"},
			Rates: []float64{0.05, 0.10, 0.15}, Seeds: []uint64{1, 2, 3}}),
		"packet and sdm collapse slot tables": quick(Spec{Modes: []string{"packet", "sdm", "tdm"},
			Patterns: []string{"ur", "tornado"}, Rates: []float64{0.05, 0.10},
			SlotTables: []int{64, 128}, Seeds: []uint64{1, 2}}),
		"mixes collapse rates": quick(Spec{Modes: []string{"packet", "tdm"},
			Patterns: []string{"mix:EQUAKE+LPS", "mix:ART+STO"}, Seeds: []uint64{1, 2, 3}}),
		"synthetic patterns and mixes": quick(Spec{Modes: []string{"packet", "tdm"},
			Patterns: []string{"tornado", "mix:EQUAKE+LPS", "transpose"},
			Rates:    []float64{0.05, 0.10}, SlotTables: []int{64, 128}, Seeds: []uint64{1, 2}}),
		"two meshes x two slot tables": quick(Spec{Modes: []string{"tdm", "packet"},
			Patterns: []string{"ur"}, Meshes: []MeshSize{{4, 4}, {6, 6}}, SlotTables: []int{64, 128},
			Rates: []float64{0.05, 0.10}, Seeds: []uint64{1, 2}}),
		"telemetry_every": quick(Spec{Modes: []string{"packet", "tdm"},
			Patterns: []string{"ur", "hotspot"}, Rates: []float64{0.05, 0.10}, Seeds: []uint64{1, 2},
			TelemetryEvery: 64}),
		"sim_workers and check_invariants": quick(Spec{Modes: []string{"packet", "tdm"},
			Patterns: []string{"neighbor", "mix:SWIM+NN"}, Rates: []float64{0.10}, Seeds: []uint64{1, 2, 3},
			SimWorkers: 2, CheckInvariants: true, PathSharing: true}),
	}
}

// TestShardHelpers: every shard of every size is exactly the matching
// slice of Expand — whole Job values, not just keys — and NumShards
// counts them.
func TestShardHelpers(t *testing.T) {
	for name, spec := range shardSpecs() {
		t.Run(name, func(t *testing.T) {
			all, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			n := len(all)
			if n < 2 || spec.Jobs() != n {
				t.Fatalf("Expand built %d jobs, Jobs() = %d", n, spec.Jobs())
			}
			for _, size := range []int{1, 2, 7, 16, n - 1, n, n + 5} {
				shards := spec.NumShards(size)
				if want := (n + size - 1) / size; shards != want {
					t.Fatalf("NumShards(%d) = %d, want %d", size, shards, want)
				}
				var derived []Job
				for i := 0; i < shards; i++ {
					part, err := spec.ShardJobs(i, size)
					if err != nil {
						t.Fatalf("ShardJobs(%d, %d): %v", i, size, err)
					}
					if want := min(size, n-i*size); len(part) != want {
						t.Fatalf("ShardJobs(%d, %d) has %d jobs, want %d", i, size, len(part), want)
					}
					derived = append(derived, part...)
				}
				if !reflect.DeepEqual(derived, all) {
					for i := range all {
						if !reflect.DeepEqual(derived[i], all[i]) {
							t.Fatalf("size %d, job %d: shard derivation diverges from Expand:\n%+v\n%+v", size, i, derived[i], all[i])
						}
					}
				}
				for _, bad := range []int{-1, shards, shards + 1} {
					if _, err := spec.ShardJobs(bad, size); err == nil {
						t.Errorf("ShardJobs(%d, %d) of %d shards: expected an error", bad, size, shards)
					}
				}
			}
			for _, size := range []int{0, -1} {
				if got := spec.NumShards(size); got != 0 {
					t.Errorf("NumShards(%d) = %d, want 0", size, got)
				}
				if _, err := spec.ShardJobs(0, size); err == nil {
					t.Errorf("ShardJobs(0, %d): expected an error", size)
				}
			}
		})
	}

	// An invalid spec answers with Normalize's error, whatever the shard.
	bad := Spec{Modes: []string{"tdm"}, Patterns: []string{"ur"}} // no rates
	norm := bad
	werr := norm.Normalize()
	if werr == nil {
		t.Fatal("spec without rates normalized")
	}
	for _, index := range []int{0, 99} {
		if _, err := bad.ShardJobs(index, 4); err == nil || err.Error() != werr.Error() {
			t.Errorf("ShardJobs(%d, 4) of an invalid spec = %v, want %q", index, err, werr)
		}
	}
	if got := bad.NumShards(4); got != 0 {
		t.Errorf("NumShards of an invalid spec = %d, want 0", got)
	}
}

// TestShardJobsCostIsPerShard: a lease builds only its own jobs, so one
// 16-job shard costs the same allocations at 864 and at 8 640 jobs (the
// benchmark's ctrl_plane grid at 32 and 320 seeds). A count, not a
// timing, so it holds on any host.
func TestShardJobsCostIsPerShard(t *testing.T) {
	var allocs []float64
	for _, seeds := range []int{32, 320} {
		spec := Spec{
			Modes:         []string{"packet", "tdm", "sdm"},
			Patterns:      []string{"ur", "tornado", "transpose"},
			Rates:         []float64{0.05, 0.10, 0.15},
			WarmupCycles:  2000,
			MeasureCycles: 8000,
		}
		for i := range seeds {
			spec.Seeds = append(spec.Seeds, uint64(100_001+i))
		}
		mid := spec.NumShards(16) / 2
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if jobs, err := spec.ShardJobs(mid, 16); err != nil || len(jobs) != 16 {
				t.Fatalf("ShardJobs(%d, 16) of %d jobs: %d jobs, %v", mid, spec.Jobs(), len(jobs), err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("ShardJobs(mid, 16) allocates %.0f times at 864 jobs but %.0f at 8 640: a lease must cost its shard, not the grid", allocs[0], allocs[1])
	}
	t.Logf("ShardJobs(mid, 16): %.0f allocations at 864 jobs, %.0f at 8 640", allocs[0], allocs[1])
}

// FuzzShardJobs: for any small grid the fuzzer assembles from the axis
// values below, the shards at any size concatenate to exactly Expand,
// NumShards counts them, and no index or size out of range — however
// large — gets through.
func FuzzShardJobs(f *testing.F) {
	f.Fuzz(func(t *testing.T, modes, patterns, axes, flags uint8, size uint16) {
		spec := fuzzSpec(modes, patterns, axes, flags)
		norm := spec
		if nerr := norm.Normalize(); nerr != nil {
			if _, err := spec.ShardJobs(0, 1); err == nil || err.Error() != nerr.Error() {
				t.Fatalf("ShardJobs of an invalid spec = %v, want Normalize's %q", err, nerr)
			}
			if got := spec.NumShards(1); got != 0 {
				t.Fatalf("NumShards of an invalid spec = %d", got)
			}
			return
		}
		n := norm.gridSize()
		sz := 1 + int(size)%(n+5)
		shards := spec.NumShards(sz)
		if want := (n + sz - 1) / sz; shards != want {
			t.Fatalf("NumShards(%d) = %d, want %d", sz, shards, want)
		}
		all, xerr := spec.Expand()
		var derived []Job
		var serr error
		for i := 0; i < shards; i++ {
			part, err := spec.ShardJobs(i, sz)
			if err != nil {
				serr = cmp.Or(serr, err)
				continue
			}
			derived = append(derived, part...)
		}
		switch {
		case xerr != nil:
			// A config Validate refuses fails Expand and the shard holding it.
			if serr == nil || serr.Error() != xerr.Error() {
				t.Fatalf("Expand fails with %q but the shards with %v", xerr, serr)
			}
		case serr != nil:
			t.Fatalf("Expand succeeds but a shard of size %d fails: %v", sz, serr)
		case !reflect.DeepEqual(derived, all):
			t.Fatalf("%d shards of size %d do not concatenate to Expand's %d jobs", shards, sz, len(all))
		}
		for _, c := range [][2]int{{-1, sz}, {shards, sz}, {math.MaxInt/sz + 1, sz}, {1, math.MaxInt}, {0, 0}, {math.MinInt, -1}} {
			if _, err := spec.ShardJobs(c[0], c[1]); err == nil {
				t.Fatalf("ShardJobs(%d, %d) of %d jobs: expected an error", c[0], c[1], n)
			}
		}
		if got := spec.NumShards(math.MaxInt); got != 1 {
			t.Fatalf("NumShards(MaxInt) = %d, want 1", got)
		}
	})
}

// fuzzSpec decodes fuzz bytes into a grid of at most 192 jobs: bit
// masks over three modes and four patterns (two of them mixes), a
// mesh, slot-table, rate and seed count from axes, and option flags.
// Empty selections and flag clashes are left in: Normalize's refusals
// are part of the contract.
func fuzzSpec(modes, patterns, axes, flags uint8) Spec {
	pick := func(mask uint8, from []string) (out []string) {
		for i, v := range from {
			if mask&(1<<i) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	s := Spec{
		Modes:                pick(modes, []string{"packet", "tdm", "sdm"}),
		Patterns:             pick(patterns, []string{"ur", "tornado", "mix:EQUAKE+LPS", "mix:ART+STO"}),
		Meshes:               []MeshSize{{6, 6}, {8, 8}}[:1+axes&1],
		SlotTables:           []int{64, 128}[:1+axes>>1&1],
		Rates:                []float64{0.05, 0.10, 0.15}[:axes>>2&3],
		Seeds:                []uint64{7, 8, 9}[:1+int(axes>>4&3)%3],
		WarmupCycles:         100,
		MeasureCycles:        100,
		PathSharing:          flags&1 != 0,
		VCPowerGating:        flags&2 != 0,
		LatencyBasedVCGating: flags&4 != 0,
		CheckInvariants:      flags&8 != 0,
	}
	if flags&16 != 0 {
		s.TelemetryEvery = 64
	}
	if flags&32 != 0 {
		s.SimWorkers = 2
	}
	return s
}
