package rstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

func newStore(seed int64) (*sim.Loop, *blob.Store, *Store) {
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	cache := tcache.New(loop, remote, tcache.DefaultConfig())
	return loop, remote, New(cache)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	loop, _, s := newStore(1)
	c := (terrain.Default{Seed: 5}).Generate(world.ChunkPos{X: 2, Z: 3})
	s.Store(c)
	var got *world.Chunk
	s.Load(c.Pos, func(lc *world.Chunk, ok bool) {
		if ok {
			got = lc
		}
	})
	loop.Run()
	if got == nil {
		t.Fatal("chunk not found after Store")
	}
	if !got.Equal(c) {
		t.Fatal("round-tripped chunk differs")
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("decode failures = %d", s.DecodeFailures)
	}
}

func TestLoadMissingChunk(t *testing.T) {
	loop, _, s := newStore(2)
	called := false
	s.Load(world.ChunkPos{X: 9, Z: 9}, func(c *world.Chunk, ok bool) {
		called = true
		if ok {
			t.Error("missing chunk reported ok")
		}
	})
	loop.Run()
	if !called {
		t.Fatal("callback not delivered")
	}
	if s.DecodeFailures != 0 {
		t.Fatal("a miss is not a decode failure")
	}
}

func TestLoadCorruptObjectCountsDecodeFailure(t *testing.T) {
	loop, remote, s := newStore(3)
	remote.Put(tcache.Key(world.ChunkPos{X: 1, Z: 1}), []byte("garbage"), nil)
	loop.Run()
	ok := true
	s.Load(world.ChunkPos{X: 1, Z: 1}, func(_ *world.Chunk, o bool) { ok = o })
	loop.Run()
	if ok {
		t.Fatal("corrupt object reported ok")
	}
	if s.DecodeFailures != 1 {
		t.Fatalf("decode failures = %d, want 1", s.DecodeFailures)
	}
}

func TestObserveAvatarsPrefetches(t *testing.T) {
	loop, remote, s := newStore(4)
	// Seed remote storage with chunks around two avatars.
	for cx := -10; cx <= 10; cx++ {
		for cz := -10; cz <= 10; cz++ {
			c := terrain.Flat{}.Generate(world.ChunkPos{X: cx, Z: cz})
			remote.Put(tcache.Key(c.Pos), c.Encode(), nil)
		}
	}
	loop.Run()
	s.ObserveAvatars([]world.BlockPos{{X: 0, Z: 0}, {X: 64, Z: 64}}, 48)
	loop.RunUntil(loop.Now() + 10*time.Second)
	if got := s.Cache().PrefetchIssued.Value(); got == 0 {
		t.Fatal("no prefetches issued")
	}
	// Chunks near an avatar must now be cache-local.
	if !s.Cache().Contains(world.ChunkPos{X: 1, Z: 1}) {
		t.Fatal("nearby chunk not prefetched into the cache")
	}
	// Duplicate positions across the two avatars must not double-fetch:
	// issued prefetches ≤ union of the two neighborhoods.
	union := make(map[world.ChunkPos]bool)
	for _, p := range []world.BlockPos{{X: 0, Z: 0}, {X: 64, Z: 64}} {
		for _, cp := range world.ChunksWithin(p, 48) {
			union[cp] = true
		}
	}
	if got := int(s.Cache().PrefetchIssued.Value()); got > len(union) {
		t.Fatalf("prefetched %d chunks, union is %d", got, len(union))
	}
}

func TestStoreIsWriteBack(t *testing.T) {
	loop, remote, s := newStore(5)
	s.Store(terrain.Flat{}.Generate(world.ChunkPos{X: 7, Z: 7}))
	loop.Run()
	if remote.Writes.Value() != 0 {
		t.Fatal("Store must go through the write-back cache, not straight to remote")
	}
	s.Cache().Flush()
	loop.Run()
	if remote.Writes.Value() != 1 {
		t.Fatalf("remote writes after flush = %d, want 1", remote.Writes.Value())
	}
}

// oracleUnion is the original map-based prefetch union: every avatar's
// ChunksWithin walk, first occurrence kept. ObserveAvatars must hand the
// cache exactly this slice.
func oracleUnion(positions []world.BlockPos, radius int) []world.ChunkPos {
	seen := make(map[world.ChunkPos]bool)
	var batch []world.ChunkPos
	for _, p := range positions {
		for _, cp := range world.ChunksWithin(p, radius) {
			if !seen[cp] {
				seen[cp] = true
				batch = append(batch, cp)
			}
		}
	}
	return batch
}

// wrappingBox is two avatars whose chunk bounding box at radius 176 is
// 2^32 x 2^32 chunks, so its area wraps int to 0: avatar positions come
// from untrusted client moves.
var wrappingBox = []world.BlockPos{{X: 0, Z: 0}, {X: (1<<32-12)*16 - 176, Z: (1<<32-12)*16 - 176}}

func TestObserveAvatarsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dup := clusteredAvatars(rng, 120, world.BlockPos{})
	dup = append(dup, dup[:40]...) // exact repeats, late in the order
	rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	sets := map[string][]world.BlockPos{
		"empty":        {},
		"single":       {{X: 5, Z: 5}},
		"clustered":    clusteredAvatars(rng, 250, world.BlockPos{X: 37, Z: -11}),
		"dups":         dup,
		"negative":     clusteredAvatars(rng, 60, world.BlockPos{X: -4099, Z: -777}),
		"far apart":    {{X: -1_000_000, Z: 3}, {X: 1_000_000, Z: -1_000_000}},
		"wrapping box": wrappingBox,
		"int extremes": {{X: math.MinInt, Z: 0}, {X: 3, Z: 3}, {X: 5, Z: math.MaxInt}, {X: math.MaxInt, Z: math.MinInt}},
		"mixed":        append(clusteredAvatars(rng, 30, world.BlockPos{X: 1_000_000}), world.BlockPos{X: -17, Z: -1}),
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	slices.Sort(names)
	// One store for every case: the scratch carries over between calls of
	// different sizes, as it does across scans of a live shard.
	_, _, s := newStore(8)
	for _, radius := range []int{-1, 0, 7, 48, 176, 200} {
		for _, name := range names {
			pos := sets[name]
			s.ObserveAvatars(pos, radius)
			got, want := s.obs.batch, oracleUnion(pos, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, radius %d: batch differs from oracle (len %d vs %d)", name, radius, len(got), len(want))
			}
		}
	}
	// The set's generation stamp wraps: slots stamped by earlier calls
	// must not read as members afterwards.
	s.obs.set.gen = ^uint32(0)
	for _, name := range names {
		s.ObserveAvatars(sets[name], 176)
		if got, want := s.obs.batch, oracleUnion(sets[name], 176); !slices.Equal(got, want) {
			t.Fatalf("%s after stamp wrap: batch differs from oracle (len %d vs %d)", name, len(got), len(want))
		}
	}
}

func TestObserveAvatarsBudgetIssuesOraclePrefix(t *testing.T) {
	loop, remote, s := newStore(9)
	const budget = 64
	if got := tcache.DefaultConfig().PrefetchBudget; got != budget {
		t.Fatalf("default prefetch budget = %d, test assumes %d", got, budget)
	}
	pos := []world.BlockPos{{X: 40, Z: 40}, {X: -70, Z: 10}, {X: 41, Z: 39}, {X: 20, Z: -90}}
	want := oracleUnion(pos, 48)
	if len(want) <= budget {
		t.Fatalf("union of %d chunks does not exceed the budget", len(want))
	}
	for _, cp := range want {
		remote.Put(tcache.Key(cp), []byte{1}, nil)
	}
	loop.Run()
	s.ObserveAvatars(pos, 48)
	loop.Run()
	if got := s.Cache().PrefetchIssued.Value(); got != budget {
		t.Fatalf("prefetches issued = %d, want %d", got, budget)
	}
	for i, cp := range want {
		if got := s.Cache().Contains(cp); got != (i < budget) {
			t.Fatalf("oracle position %d (%v) cached = %v, want %v", i, cp, got, i < budget)
		}
	}
}

func TestObserveAvatarsSteadyStateZeroAlloc(t *testing.T) {
	s, avatars := NewObserveBench(11)
	if allocs := testing.AllocsPerRun(20, func() { s.ObserveAvatars(avatars, ObserveBenchRadius) }); allocs != 0 {
		t.Fatalf("steady-state ObserveAvatars allocates %v times per call, want 0", allocs)
	}
	if got := s.Cache().PrefetchIssued.Value(); got != 0 {
		t.Fatalf("prefetches issued = %d with every chunk local", got)
	}
}

func TestObserveAvatarsScratchFollowsUnion(t *testing.T) {
	for name, pos := range map[string][]world.BlockPos{
		"far apart":    {{X: -500_000, Z: -500_000}, {X: 500_000, Z: 500_000}},
		"wrapping box": wrappingBox,
		"int extremes": {{X: math.MinInt, Z: 0}, {X: 3, Z: 3}, {X: 5, Z: math.MaxInt}, {X: math.MaxInt, Z: math.MinInt}},
	} {
		_, _, s := newStore(12)
		s.ObserveAvatars(pos, 176)
		area := world.ChunkRectWithin(pos[0], 176).Count() + world.ChunkRectWithin(pos[1], 176).Count()
		if got := len(s.obs.set.slots); got > 4*area {
			t.Fatalf("%s: scratch set has %d slots, want at most 4x the rect areas (%d)", name, got, 4*area)
		}
		if got := len(s.obs.batch); got != area {
			t.Fatalf("%s: batch = %d chunks, want %d", name, got, area)
		}
	}
}

// BenchmarkObserveAvatars measures one storage prefetch observation of a
// populated shard: NewObserveBench's clustered avatars, every chunk
// already local.
func BenchmarkObserveAvatars(b *testing.B) {
	s, avatars := NewObserveBench(13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveAvatars(avatars, ObserveBenchRadius)
	}
}
