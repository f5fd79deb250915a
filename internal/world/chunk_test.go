package world

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeAppendMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var buf []byte
	for i := 0; i < 10; i++ {
		c := randomChunk(r, int(numBlockIDs))
		want := c.Encode()
		buf = c.EncodeAppend(buf[:0])
		if !bytes.Equal(buf, want) {
			t.Fatalf("EncodeAppend bytes differ from Encode for chunk %v", c.Pos)
		}
		// Append semantics: an existing prefix is preserved.
		withPrefix := c.EncodeAppend([]byte("prefix"))
		if !bytes.Equal(withPrefix[:6], []byte("prefix")) || !bytes.Equal(withPrefix[6:], want) {
			t.Fatalf("EncodeAppend clobbered the dst prefix for chunk %v", c.Pos)
		}
	}
}

// layeredChunk is terrain-shaped: a stone body up to height h with a
// grass top, built through Set so every touched section is dense.
func layeredChunk(pos ChunkPos, h int) *Chunk {
	c := NewChunk(pos)
	for x := 0; x < ChunkSizeX; x++ {
		for z := 0; z < ChunkSizeZ; z++ {
			for y := 0; y < h; y++ {
				c.Set(x, y, z, Block{ID: Stone})
			}
			c.Set(x, h, z, Block{ID: Grass})
		}
	}
	return c
}

// TestDecodeChunkIntoReusedEqualsFresh is the reuse contract: decoding
// into a chunk that previously held dense sections must be block-for-block
// identical to a fresh decode, with no residue from the previous occupant,
// whether the new chunk's sections come out dense or uniform.
func TestDecodeChunkIntoReusedEqualsFresh(t *testing.T) {
	f := func(seedA, seedB int64, layered bool) bool {
		prev := randomChunk(rand.New(rand.NewSource(seedA)), 5)
		prev.Version, prev.GenWork = 99, 42
		var src *Chunk
		if layered {
			src = layeredChunk(ChunkPos{X: int(seedB % 100)}, int(uint64(seedB)%250))
			src.Compact()
		} else {
			src = randomChunk(rand.New(rand.NewSource(seedB)), 5)
		}
		enc := src.Encode()
		if err := DecodeChunkInto(prev, enc); err != nil {
			return false
		}
		fresh, err := DecodeChunk(enc)
		if err != nil {
			return false
		}
		return prev.Equal(fresh) && prev.Equal(src) && prev.Pos == src.Pos &&
			prev.Version == 0 && prev.GenWork == 0 &&
			prev.UniformSections() == fresh.UniformSections() &&
			bytes.Equal(prev.Encode(), enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkCodecZeroAlloc(t *testing.T) {
	c := NewChunk(ChunkPos{X: 2, Z: -7})
	for x := 0; x < ChunkSizeX; x++ {
		for z := 0; z < ChunkSizeZ; z++ {
			for y := 0; y < 60; y++ {
				c.Set(x, y, z, Block{ID: Stone})
			}
			c.Set(x, 60, z, Block{ID: Grass})
		}
	}
	buf := c.EncodeAppend(nil)
	dec := new(Chunk)
	allocs := testing.AllocsPerRun(20, func() {
		buf = c.EncodeAppend(buf[:0])
		if err := DecodeChunkInto(dec, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EncodeAppend+DecodeChunkInto allocates %.1f/op, want 0", allocs)
	}
	if !dec.Equal(c) {
		t.Fatal("round trip mismatch")
	}
}

// TestSetDensifiesOnlyOnChange pins the section life cycle: a write that
// changes nothing leaves a uniform section uniform, the first changing
// write makes it dense, and Version counts exactly the changing writes.
func TestSetDensifiesOnlyOnChange(t *testing.T) {
	c := NewChunk(ChunkPos{})
	c.Set(1, 40, 1, Block{}) // air onto air
	if c.UniformSections() != SectionsPerChunk || c.Version != 0 {
		t.Fatalf("no-op write: %d uniform sections, version %d", c.UniformSections(), c.Version)
	}
	c.Set(1, 40, 1, Block{ID: Stone})
	if c.UniformSections() != SectionsPerChunk-1 || c.Version != 1 {
		t.Fatalf("first write: %d uniform sections, version %d", c.UniformSections(), c.Version)
	}
	c.Set(1, 40, 1, Block{})
	if c.Version != 2 || c.NonAirCount() != 0 {
		t.Fatalf("revert: version %d, %d non-air", c.Version, c.NonAirCount())
	}
	c.Compact()
	if c.UniformSections() != SectionsPerChunk || c.Version != 2 || !c.Equal(NewChunk(ChunkPos{})) {
		t.Fatalf("compact: %d uniform sections, version %d", c.UniformSections(), c.Version)
	}
}

// TestFillColumnMatchesSet checks FillColumn against the Set loop it
// stands for — blocks and Version — over random runs, clipped ones
// included.
func TestFillColumnMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a, b := NewChunk(ChunkPos{}), NewChunk(ChunkPos{})
	for i := 0; i < 2000; i++ {
		x, z := r.Intn(ChunkSizeX+2)-1, r.Intn(ChunkSizeZ+2)-1
		y0 := r.Intn(ChunkSizeY+40) - 20
		y1 := y0 + r.Intn(80)
		blk := Block{ID: BlockID(r.Intn(4))}
		a.FillColumn(x, z, y0, y1, blk)
		for y := y0; y < y1; y++ {
			b.Set(x, y, z, blk)
		}
		if a.Version != b.Version {
			t.Fatalf("step %d: FillColumn version %d, Set version %d", i, a.Version, b.Version)
		}
	}
	if !a.Equal(b) || !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("FillColumn chunk differs from the Set-built one")
	}
}

// TestCompactIsInvisible checks that compaction changes only the
// representation: the compacted chunk is Equal to (both ways), encodes
// like, and reads like the dense original, and keeps its Version.
func TestCompactIsInvisible(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		c := layeredChunk(ChunkPos{X: i}, 20+r.Intn(200))
		for j := 0; j < r.Intn(20); j++ {
			c.Set(r.Intn(ChunkSizeX), SectionHeight+r.Intn(ChunkSizeY-SectionHeight), r.Intn(ChunkSizeZ), Block{ID: Wire, Data: 3})
		}
		comp := c.Clone()
		comp.Compact()
		if comp.Version != c.Version {
			t.Fatalf("Compact changed Version %d → %d", c.Version, comp.Version)
		}
		if comp.UniformSections() <= c.UniformSections() {
			t.Fatalf("chunk %d: Compact left %d uniform sections (dense original %d)", i, comp.UniformSections(), c.UniformSections())
		}
		if !comp.Equal(c) || !c.Equal(comp) {
			t.Fatalf("chunk %d: compacted chunk not Equal to the original", i)
		}
		if !bytes.Equal(comp.Encode(), c.Encode()) {
			t.Fatalf("chunk %d: compacted chunk encodes differently", i)
		}
		for y := 0; y < ChunkSizeY; y++ {
			if comp.At(7, y, 9) != c.At(7, y, 9) || comp.SurfaceY(7, 9) != c.SurfaceY(7, 9) {
				t.Fatalf("chunk %d: compacted chunk reads differently at y=%d", i, y)
			}
		}
		if comp.NonAirCount() != c.NonAirCount() {
			t.Fatalf("chunk %d: NonAirCount %d vs %d", i, comp.NonAirCount(), c.NonAirCount())
		}
		// A write after compaction re-densifies just that section.
		comp.Set(0, 255, 0, Block{ID: Stone})
		if comp.Equal(c) {
			t.Fatalf("chunk %d: write after Compact not visible to Equal", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := layeredChunk(ChunkPos{X: 1}, 70)
	d := c.Clone()
	d.Set(3, 20, 3, Block{ID: Dirt})
	if c.At(3, 20, 3).ID != Stone || c.Equal(d) {
		t.Fatal("writing the clone changed the original")
	}
}

// benchChunk is the terrain-shaped chunk of the bench suite's codec
// harness: a stone body to y=60 under a grass top, built through Set.
func benchChunk() *Chunk { return layeredChunk(ChunkPos{X: 2, Z: -7}, 60) }

func BenchmarkChunkEncode(b *testing.B) {
	c := benchChunk()
	buf := c.EncodeAppend(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.EncodeAppend(buf[:0])
	}
}

func BenchmarkChunkDecode(b *testing.B) {
	enc := benchChunk().Encode()
	dec := new(Chunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeChunkInto(dec, enc); err != nil {
			b.Fatal(err)
		}
	}
}
