package rstore

import "servo/internal/world"

// ObserveAvatars implements mve.AvatarObserver: pre-fetch every chunk
// within the pre-fetch radius of any avatar (§III-E: "pre-fetches terrain
// data outside of, but close to, the player's view distance").
//
// The batch handed to the cache is the union of the avatars' chunk rects
// in first-seen order — avatars in the order given, each rect walked
// X-major, Z ascending — because the prefetch budget admits a prefix of
// it and every remote-read latency draw follows its order. The walk runs
// on per-Store scratch, so a steady-state call allocates nothing.
func (s *Store) ObserveAvatars(positions []world.BlockPos, radius int) {
	s.cache.Prefetch(s.obs.union(positions, radius))
}

// observeScratch is ObserveAvatars' working memory, reused across calls.
type observeScratch struct {
	rects []world.ChunkRect // distinct avatar rects, first-seen order
	batch []world.ChunkPos  // the union handed to Prefetch
	set   chunkSet          // chunks already in batch
}

// union returns the chunks within radius blocks of any position, in
// first-seen order. The slice is scratch, valid until the next call.
//
// Avatars cluster, so most share their rect with an earlier one and add
// nothing to the union: those are skipped before any chunk is touched.
// The remaining rects dedup through a set sized by the smaller of their
// summed areas and their bounding box, so its memory follows the union
// rather than how far apart the avatars stand.
func (o *observeScratch) union(positions []world.BlockPos, radius int) []world.ChunkPos {
	o.rects = o.rects[:0]
	o.batch = o.batch[:0]
	var area int
	var box world.ChunkRect
	for _, p := range positions {
		r := world.ChunkRectWithin(p, radius)
		if seenRect(o.rects, r) {
			continue
		}
		if len(o.rects) == 0 {
			box = r
		} else {
			box.Min.X, box.Min.Z = min(box.Min.X, r.Min.X), min(box.Min.Z, r.Min.Z)
			box.Max.X, box.Max.Z = max(box.Max.X, r.Max.X), max(box.Max.Z, r.Max.Z)
		}
		o.rects = append(o.rects, r)
		area += r.Count()
	}
	// Avatar positions are untrusted, so the box can be wider than int can
	// count: it caps the size only when its area cannot overflow.
	n := area
	if w, h := box.Max.X-box.Min.X+1, box.Max.Z-box.Min.Z+1; area > 0 && h <= area/w {
		n = w * h
	}
	o.set.reset(n)
	for _, r := range o.rects {
		for cx := r.Min.X; cx <= r.Max.X; cx++ {
			for cz := r.Min.Z; cz <= r.Max.Z; cz++ {
				cp := world.ChunkPos{X: cx, Z: cz}
				if o.set.add(cp) {
					o.batch = append(o.batch, cp)
				}
			}
		}
	}
	return o.batch
}

// seenRect reports whether r is already in rects, newest first: avatars
// arrive grouped, so a repeat usually matches a recent rect.
func seenRect(rects []world.ChunkRect, r world.ChunkRect) bool {
	for i := len(rects) - 1; i >= 0; i-- {
		if rects[i] == r {
			return true
		}
	}
	return false
}

// chunkSet is an open-addressing set of chunk positions (linear probing).
// A slot belongs to the set only while its stamp equals gen, so reset
// empties it in O(1) instead of clearing the table.
type chunkSet struct {
	slots []setSlot
	shift uint // 64 - log2(len(slots)): index = top bits of the hash
	gen   uint32
}

type setSlot struct {
	pos world.ChunkPos
	gen uint32
}

// reset empties the set and makes room for n members at a load factor of
// at most one half, growing the table only when it is too small.
func (s *chunkSet) reset(n int) {
	size, bits := 16, uint(4)
	for size < 2*n {
		size, bits = size<<1, bits+1
	}
	if size > len(s.slots) {
		s.slots, s.shift, s.gen = make([]setSlot, size), 64-bits, 0
	}
	s.gen++
	if s.gen == 0 { // the stamp wrapped: stale slots could match again
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts cp and reports whether it was absent.
func (s *chunkSet) add(cp world.ChunkPos) bool {
	mask := len(s.slots) - 1
	h := (uint64(cp.X)*0x9E3779B97F4A7C15 ^ uint64(cp.Z)) * 0xBF58476D1CE4E5B9
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.pos, sl.gen = cp, s.gen
			return true
		}
		if sl.pos == cp {
			return false
		}
	}
}
