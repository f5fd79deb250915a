package rstore

import (
	"math/rand"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/world"
)

// The storage-observe benchmark's shape: a populated shard's avatars at
// the fleet pre-fetch radius (128-block view distance + the 48-block
// mve.PrefetchMargin).
const (
	ObserveBenchAvatars = 250
	ObserveBenchRadius  = 128 + 48
)

// NewObserveBench returns the storage-observe benchmark load, shared by
// BenchmarkObserveAvatars and the internal/bench suite: ObserveBenchAvatars
// clustered avatars over a store whose cache already holds every chunk
// within ObserveBenchRadius of them, so ObserveAvatars measures the union
// walk plus the cache's local-hit checks and issues no fetch. One call
// has already run, so the scratch is sized and the next call is the
// steady state.
func NewObserveBench(seed int64) (*Store, []world.BlockPos) {
	loop := sim.NewLoop(seed)
	s := New(tcache.New(loop, blob.NewStore(loop, blob.TierPremium), tcache.DefaultConfig()))
	avatars := clusteredAvatars(rand.New(rand.NewSource(seed)), ObserveBenchAvatars, world.BlockPos{})
	for _, p := range avatars {
		for _, cp := range world.ChunksWithin(p, ObserveBenchRadius) {
			s.cache.Put(cp, []byte{1})
		}
	}
	s.ObserveAvatars(avatars, ObserveBenchRadius)
	return s, avatars
}

// clusteredAvatars places n avatars in six tight groups around origin,
// the shape a populated shard observes: many avatars share a chunk rect,
// and every group straddles chunk boundaries.
func clusteredAvatars(rng *rand.Rand, n int, origin world.BlockPos) []world.BlockPos {
	centers := []world.BlockPos{{X: 0, Z: 0}, {X: 180, Z: 40}, {X: -150, Z: 220}, {X: 60, Z: -260}, {X: 300, Z: 300}, {X: -310, Z: -90}}
	out := make([]world.BlockPos, n)
	for i := range out {
		c := centers[i%len(centers)]
		out[i] = world.BlockPos{X: origin.X + c.X + rng.Intn(49) - 24, Y: 64, Z: origin.Z + c.Z + rng.Intn(49) - 24}
	}
	return out
}
