// Package rstore implements Servo's remote state storage (paper §III-E):
// chunk persistence through managed (serverless) storage, fronted by the
// local pre-fetching cache of internal/servo/tcache, so that storage
// latency variability never reaches the game loop.
//
// It implements mve.ChunkStore (load/store) and mve.AvatarObserver
// (distance-based pre-fetching driven by avatar positions).
package rstore

import (
	"errors"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/world"
)

// Store is a cached remote chunk store.
type Store struct {
	cache *tcache.Cache
	// scratch is the reused encode buffer: the cache retains the bytes it
	// is handed, so writes copy the scratch into one exact-size slice —
	// still dropping Encode's index side-table and growth reallocations.
	scratch []byte
	// obs is ObserveAvatars' reused working memory (observe.go).
	obs observeScratch

	// DecodeFailures counts stored objects that failed to decode
	// (corruption guard; always zero in healthy runs).
	DecodeFailures int
}

// New returns a store over the given cache.
func New(cache *tcache.Cache) *Store {
	return &Store{cache: cache}
}

// Cache exposes the underlying terrain cache (for metrics).
func (s *Store) Cache() *tcache.Cache { return s.cache }

// Load implements mve.ChunkStore: fetch through the cache; a missing
// object reports ok=false so the server generates the chunk instead.
func (s *Store) Load(pos world.ChunkPos, cb func(c *world.Chunk, ok bool)) {
	s.cache.Get(pos, func(data []byte, err error) {
		if err != nil {
			// The cache retries chaos-injected faults internally
			// (tcache.fetch uses blob.GetRetrying), so any error here is
			// a genuine not-found or corruption.
			if !errors.Is(err, blob.ErrNotFound) {
				s.DecodeFailures++
			}
			cb(nil, false)
			return
		}
		c := world.NewChunk(pos)
		if derr := world.DecodeChunkInto(c, data); derr != nil {
			s.DecodeFailures++
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

// LoadMany implements mve.BatchingChunkStore: one call serves a whole
// tick's coalesced loads. Each position takes the same cache path as Load,
// in the order given, so hit/miss accounting and storage-latency draws
// are identical to the per-chunk calls this replaces.
func (s *Store) LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool)) {
	for _, cp := range pos {
		cp := cp
		s.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// encode serialises c through the reused scratch buffer into an owned
// exact-size slice (the cache retains what it is handed).
func (s *Store) encode(c *world.Chunk) []byte {
	s.scratch = c.EncodeAppend(s.scratch[:0])
	out := make([]byte, len(s.scratch))
	copy(out, s.scratch)
	return out
}

// Store implements mve.ChunkStore: encode and write back through the
// cache (flushed to remote storage periodically).
func (s *Store) Store(c *world.Chunk) {
	s.cache.Put(c.Pos, s.encode(c))
}

// StoreThen implements mve.SyncingChunkStore: the chunk is written
// through to remote storage immediately (not on the periodic write-back),
// and done runs once the write lands. Ownership migrations flush the
// source shard's band through this path before flipping the band to its
// new owner.
func (s *Store) StoreThen(c *world.Chunk, done func()) {
	s.cache.PutThen(c.Pos, s.encode(c), done)
}

// PlayerKey returns the storage key for a player record.
func PlayerKey(name string) string { return "player/" + name }

// SavePlayer implements mve.PlayerStore: player records are small and
// written straight to remote storage (no chunk cache involved).
// Chaos-injected write faults are retried until the record lands.
func (s *Store) SavePlayer(name string, data []byte) {
	s.cache.Remote().PutRetrying(PlayerKey(name), data)
}

// LoadPlayer implements mve.PlayerStore. GetRetrying: a false "new
// player" would reset the player's persisted progress.
func (s *Store) LoadPlayer(name string, cb func(data []byte, ok bool)) {
	s.cache.Remote().GetRetrying(PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}
