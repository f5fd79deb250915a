package world_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"servo/internal/terrain"
	"servo/internal/world"
)

// flatEncode is the reference SVOC encoder: the flat-array algorithm the
// sectioned codec must reproduce byte for byte. It reads every block
// through At into a 64K array in (y, z, x) order, builds the palette in
// order of first appearance and packs each index with writeBits.
func flatEncode(c *world.Chunk) []byte {
	blocks := make([]world.Block, 0, world.BlocksPerChunk)
	for y := 0; y < world.ChunkSizeY; y++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			for x := 0; x < world.ChunkSizeX; x++ {
				blocks = append(blocks, c.At(x, y, z))
			}
		}
	}
	key := func(b world.Block) uint16 { return uint16(b.ID)<<8 | uint16(b.Data) }
	index := make([]uint32, 1<<16) // key → palette index + 1
	var palette []uint16
	for _, b := range blocks {
		if index[key(b)] == 0 {
			palette = append(palette, key(b))
			index[key(b)] = uint32(len(palette))
		}
	}
	bits := uint(1)
	for 1<<bits < len(palette) {
		bits++
	}
	out := binary.LittleEndian.AppendUint32(nil, 0x53564f43)
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(c.Pos.X)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(c.Pos.Z)))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(palette)))
	for _, k := range palette {
		out = binary.LittleEndian.AppendUint16(out, k)
	}
	out = append(out, byte(bits))
	data := make([]byte, (world.BlocksPerChunk*int(bits)+7)/8)
	for i, b := range blocks {
		writeBits(data, uint(i)*bits, bits, index[key(b)]-1)
	}
	return append(out, data...)
}

// writeBits ORs the low `bits` bits of v in at bit offset pos,
// little-endian within the byte stream.
func writeBits(data []byte, pos, bits uint, v uint32) {
	w := v << (pos % 8)
	i := pos / 8
	data[i] |= byte(w)
	if bits+pos%8 > 8 {
		data[i+1] |= byte(w >> 8)
	}
	if bits+pos%8 > 16 {
		data[i+2] |= byte(w >> 16)
	}
}

// sameBlocks compares two chunks block by block through At, independent
// of Chunk.Equal.
func sameBlocks(a, b *world.Chunk) bool {
	if a.Pos != b.Pos {
		return false
	}
	for y := 0; y < world.ChunkSizeY; y++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			for x := 0; x < world.ChunkSizeX; x++ {
				if a.At(x, y, z) != b.At(x, y, z) {
					return false
				}
			}
		}
	}
	return true
}

// checkOracle asserts that c encodes exactly as the flat reference does,
// and that the encoding decodes back to c.
func checkOracle(t *testing.T, name string, c *world.Chunk) {
	t.Helper()
	want := flatEncode(c)
	got := c.Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: sectioned encoding (%d bytes) differs from the flat reference (%d bytes)", name, len(got), len(want))
	}
	dec, err := world.DecodeChunk(got)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !dec.Equal(c) || !c.Equal(dec) || !sameBlocks(dec, c) {
		t.Fatalf("%s: decoded chunk differs from the original", name)
	}
}

// paletteChunk builds a chunk whose palette holds exactly n entries: for
// n ≥ 2 a stone floor (two uniform sections once compacted), air, and
// n-2 other distinct blocks scattered above the floor.
func paletteChunk(r *rand.Rand, n int) *world.Chunk {
	c := world.NewChunk(world.ChunkPos{X: r.Intn(200) - 100, Z: r.Intn(200) - 100})
	if n == 1 {
		return c
	}
	stone := world.Block{ID: world.Stone}
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			c.FillColumn(x, z, 0, 32, stone)
		}
	}
	var others []world.Block
	for _, k := range r.Perm(1 << 16) {
		if len(others) == n-2 {
			break
		}
		b := world.Block{ID: world.BlockID(k >> 8), Data: uint8(k)}
		if b != stone && b != (world.Block{}) {
			others = append(others, b)
		}
	}
	const floor = 32 * world.ChunkSizeX * world.ChunkSizeZ
	for i, p := range r.Perm(world.BlocksPerChunk - floor)[:len(others)] {
		p += floor
		y, z, x := p/(world.ChunkSizeX*world.ChunkSizeZ), p/world.ChunkSizeX%world.ChunkSizeZ, p%world.ChunkSizeX
		c.Set(x, y, z, others[i])
	}
	c.Compact()
	return c
}

// TestCodecMatchesFlatOracleAllWidths covers every index width 1–16 at
// both ends of its palette range (capped where a chunk cannot hold that
// many distinct blocks above the floor), plus the 64/65 boundary of the
// decoder's stack palette and the 256/257 boundary of one byte.
func TestCodecMatchesFlatOracleAllWidths(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sizes := []int{1, 2, 64, 65, 256, 257}
	for w := 2; w <= 16; w++ {
		sizes = append(sizes, 1<<(w-1)+1)
		if w <= 12 {
			sizes = append(sizes, 1<<w)
		}
	}
	for _, n := range sizes {
		c := paletteChunk(r, n)
		enc := c.Encode()
		if got := int(binary.LittleEndian.Uint16(enc[12:])); got != n {
			t.Fatalf("palette size %d: chunk encodes %d entries", n, got)
		}
		checkOracle(t, fmt.Sprintf("palette %d", n), c)
	}
}

func TestCodecMatchesFlatOracleShapes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	stone, grass := world.Block{ID: world.Stone}, world.Block{ID: world.Grass}
	// Layered terrain with a surface that crosses section boundaries.
	layered := world.NewChunk(world.ChunkPos{X: 4, Z: -9})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			h := 40 + r.Intn(50)
			layered.FillColumn(x, z, 0, h, stone)
			layered.Set(x, h, z, grass)
		}
	}
	checkOracle(t, "layered dense", layered.Clone())
	layered.Compact()
	checkOracle(t, "layered compacted", layered)
	// Sparse sprinkles of circuit blocks with state into an air chunk.
	sparse := world.NewChunk(world.ChunkPos{X: -1, Z: 1})
	for i := 0; i < 40; i++ {
		sparse.Set(r.Intn(16), r.Intn(256), r.Intn(16), world.Block{ID: world.Wire, Data: uint8(r.Intn(16))})
	}
	checkOracle(t, "sparse", sparse)
	// All-uniform chunks: all air, one solid block, and a stack of
	// differing uniform sections (index width > 1 with no dense section).
	checkOracle(t, "all air", world.NewChunk(world.ChunkPos{}))
	full := world.NewChunk(world.ChunkPos{X: 1})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			full.FillColumn(x, z, 0, world.ChunkSizeY, stone)
		}
	}
	full.Compact()
	checkOracle(t, "all stone", full)
	stack := world.NewChunk(world.ChunkPos{Z: 3})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			for s := 0; s < world.SectionsPerChunk; s++ {
				b := world.Block{ID: world.BlockID(s % 5), Data: uint8(s / 5)}
				stack.FillColumn(x, z, s*world.SectionHeight, (s+1)*world.SectionHeight, b)
			}
		}
	}
	stack.Compact()
	if stack.UniformSections() != world.SectionsPerChunk {
		t.Fatalf("stack: %d uniform sections, want all", stack.UniformSections())
	}
	checkOracle(t, "uniform stack", stack)
	// A section whose bytes repeat with period `bits` while its indices
	// alternate must decode dense, not uniform.
	striped := world.NewChunk(world.ChunkPos{})
	for x := 0; x < world.ChunkSizeX; x += 2 {
		for z := 0; z < world.ChunkSizeZ; z++ {
			striped.FillColumn(x, z, 0, world.SectionHeight, stone)
		}
	}
	checkOracle(t, "striped", striped)
	if striped.UniformSections() != world.SectionsPerChunk-1 {
		t.Fatalf("striped: %d uniform sections, want all but the first", striped.UniformSections())
	}
	if dec, _ := world.DecodeChunk(striped.Encode()); dec.UniformSections() != world.SectionsPerChunk-1 {
		t.Fatalf("striped: decoded with %d uniform sections, want all but the first", dec.UniformSections())
	}
	// Block key 0xffff leading the chunk: a last-key memo seeded with
	// 0xffff would leave it out of the palette and decode it as air.
	lead := world.NewChunk(world.ChunkPos{})
	lead.Set(0, 0, 0, world.Block{ID: 0xff, Data: 0xff})
	checkOracle(t, "leading 0xffff", lead)
}

func TestCodecMatchesFlatOracleGenerated(t *testing.T) {
	for _, g := range []terrain.Generator{terrain.Flat{}, terrain.Default{Seed: 42}} {
		for _, pos := range []world.ChunkPos{{X: 0, Z: 0}, {X: -3, Z: 5}, {X: 17, Z: -40}} {
			checkOracle(t, fmt.Sprintf("%s %v", g.Name(), pos), g.Generate(pos))
		}
	}
}

// FuzzDecodeChunk: DecodeChunkInto is a trust boundary (storage and FaaS
// payloads, the client wire) and must reject, never panic on, any input.
// Whatever it accepts must re-encode exactly as the flat reference does
// and round-trip to an Equal chunk.
func FuzzDecodeChunk(f *testing.F) {
	air := world.NewChunk(world.ChunkPos{})
	f.Add(air.Encode())
	f.Add(terrain.Flat{}.Generate(world.ChunkPos{X: 1, Z: 2}).Encode())
	f.Add(terrain.Default{Seed: 42}.Generate(world.ChunkPos{X: -2, Z: 3}).Encode())
	f.Add(paletteChunk(rand.New(rand.NewSource(9)), 300).Encode())
	// The corrupt inputs of TestDecodeChunkRejectsCorruptInput.
	one := world.NewChunk(world.ChunkPos{})
	one.Set(0, 0, 0, world.Block{ID: world.Stone})
	enc := one.Encode()
	f.Add([]byte{})
	f.Add(enc[:10])
	f.Add(append([]byte{0, 0, 0, 0}, enc[4:]...))
	f.Add(enc[:len(enc)-10])
	f.Add(enc[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		c := world.NewChunk(world.ChunkPos{})
		if err := world.DecodeChunkInto(c, data); err != nil {
			return
		}
		re := c.Encode()
		if !bytes.Equal(re, flatEncode(c)) {
			t.Fatal("re-encoding differs from the flat reference")
		}
		back, err := world.DecodeChunk(re)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if !back.Equal(c) || !sameBlocks(back, c) {
			t.Fatal("re-encoded chunk decodes to a different chunk")
		}
	})
}
