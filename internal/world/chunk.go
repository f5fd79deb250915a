package world

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"slices"
)

// Section dimensions: a chunk is a stack of SectionsPerChunk sections of
// 16×16×SectionHeight blocks.
const (
	SectionHeight    = 16
	SectionsPerChunk = ChunkSizeY / SectionHeight
	BlocksPerSection = ChunkSizeX * ChunkSizeZ * SectionHeight
)

// Chunk is one 16×16×256 column of blocks, stored as SectionsPerChunk
// vertical sections. A section is either uniform (one Block stands for all
// of it) or dense (its own array indexed by (y, z, x)). Natural terrain is
// mostly uniform sections — solid stone below, air above — so a chunk
// costs memory and codec work in proportion to its mixed sections. The
// zero value is all air.
type Chunk struct {
	Pos      ChunkPos
	sections [SectionsPerChunk]section
	// Version counts the writes that changed a block, used by the
	// persistence layer to detect dirty chunks and by tests to assert copy
	// semantics.
	Version uint64
	// GenWork records the number of abstract work units spent generating
	// this chunk (0 for hand-built chunks); the cost model charges it
	// when a locally-generated chunk is applied on the game loop.
	GenWork int
}

// section is one 16³ slice of a chunk. When dense is false every block is
// fill; blocks may then still hold a spare array, kept so that decoding
// into a reused chunk allocates nothing (Compact releases it).
type section struct {
	blocks *[BlocksPerSection]Block
	fill   Block
	dense  bool
}

// NewChunk returns an empty (all-air) chunk at pos.
func NewChunk(pos ChunkPos) *Chunk {
	return &Chunk{Pos: pos}
}

// sectionIndex is the offset of a block inside its section's array; y may
// be chunk-local (only its low four bits count).
func sectionIndex(x, y, z int) int {
	return ((y%SectionHeight)*ChunkSizeZ+z)*ChunkSizeX + x
}

func inChunk(x, y, z int) bool {
	return uint(x) < ChunkSizeX && uint(z) < ChunkSizeZ && uint(y) < ChunkSizeY
}

// At returns the block at chunk-local coordinates. Coordinates outside the
// chunk bounds return Air.
func (c *Chunk) At(x, y, z int) Block {
	if !inChunk(x, y, z) {
		return Block{}
	}
	s := &c.sections[y/SectionHeight]
	if !s.dense {
		return s.fill
	}
	return s.blocks[sectionIndex(x, y, z)]
}

// Set writes the block at chunk-local coordinates. Out-of-bounds writes are
// ignored. The first write that changes a uniform section makes it dense.
func (c *Chunk) Set(x, y, z int, b Block) {
	if !inChunk(x, y, z) {
		return
	}
	s := &c.sections[y/SectionHeight]
	if !s.dense {
		if s.fill == b {
			return
		}
		s.makeDense()
	}
	if i := sectionIndex(x, y, z); s.blocks[i] != b {
		s.blocks[i] = b
		c.Version++
	}
}

// FillColumn writes b to the blocks y0 ≤ y < y1 of column (x, z), clipped
// to the chunk; it is Set over the run, Version included, without a call
// per block. Terrain generators build chunks from such vertical runs.
func (c *Chunk) FillColumn(x, z, y0, y1 int, b Block) {
	if uint(x) >= ChunkSizeX || uint(z) >= ChunkSizeZ {
		return
	}
	const layer = ChunkSizeX * ChunkSizeZ
	changed := 0
	for y := max(y0, 0); y < min(y1, ChunkSizeY); {
		si := y / SectionHeight
		s := &c.sections[si]
		end := min(y1, (si+1)*SectionHeight)
		if !s.dense {
			if s.fill == b {
				y = end
				continue
			}
			s.makeDense()
		}
		col := s.blocks[z*ChunkSizeX+x:]
		for i := (y - si*SectionHeight) * layer; i < (end-si*SectionHeight)*layer; i += layer {
			if col[i] != b {
				col[i] = b
				changed++
			}
		}
		y = end
	}
	c.Version += uint64(changed)
}

// Compact stores every dense section whose blocks all match as uniform
// and releases the arrays of uniform sections. Generators call it last,
// so a generated chunk holds no more memory than a decoded one. It never
// changes a block or Version.
func (c *Chunk) Compact() {
	for i := range c.sections {
		s := &c.sections[i]
		if s.dense && allBlocks(s.blocks, s.blocks[0]) {
			s.fill, s.dense = s.blocks[0], false
		}
		if !s.dense {
			s.blocks = nil
		}
	}
}

// UniformSections returns how many of the chunk's sections are stored as
// one block (a measure of its representation, for tests and benchmarks).
func (c *Chunk) UniformSections() int {
	n := 0
	for i := range c.sections {
		if !c.sections[i].dense {
			n++
		}
	}
	return n
}

// makeDense gives a uniform section its own array of fill blocks, reusing
// a spare array when it has one.
func (s *section) makeDense() {
	if s.blocks == nil {
		s.blocks = new([BlocksPerSection]Block)
		if s.fill != (Block{}) {
			fillBlocks(s.blocks, s.fill)
		}
	} else {
		fillBlocks(s.blocks, s.fill)
	}
	s.dense = true
}

func fillBlocks(a *[BlocksPerSection]Block, b Block) {
	a[0] = b
	for n := 1; n < len(a); n *= 2 {
		copy(a[n:], a[:n])
	}
}

// allBlocks reports whether every block of a is b, a 16×16 layer at a
// time (array comparison compiles to one memequal).
func allBlocks(a *[BlocksPerSection]Block, b Block) bool {
	const layer = ChunkSizeX * ChunkSizeZ
	var row [layer]Block
	for i := range row {
		row[i] = b
	}
	for i := 0; i < len(a); i += layer {
		if [layer]Block(a[i:i+layer]) != row {
			return false
		}
	}
	return true
}

// SurfaceY returns the Y coordinate of the highest solid block in the given
// column, or -1 if the column is empty.
func (c *Chunk) SurfaceY(x, z int) int {
	for si := SectionsPerChunk - 1; si >= 0; si-- {
		s := &c.sections[si]
		top := si*SectionHeight + SectionHeight - 1
		if !s.dense {
			if s.fill.ID.Solid() {
				return top
			}
			continue
		}
		for y := top; y >= si*SectionHeight; y-- {
			if s.blocks[sectionIndex(x, y, z)].ID.Solid() {
				return y
			}
		}
	}
	return -1
}

// NonAirCount returns the number of non-air blocks, a cheap density measure
// used by tests and the cost model.
func (c *Chunk) NonAirCount() int {
	n := 0
	for i := range c.sections {
		s := &c.sections[i]
		if !s.dense {
			if !s.fill.IsAir() {
				n += BlocksPerSection
			}
			continue
		}
		for _, b := range s.blocks {
			if !b.IsAir() {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the chunk.
func (c *Chunk) Clone() *Chunk {
	out := *c
	for i := range out.sections {
		s := &out.sections[i]
		if s.dense {
			a := *s.blocks
			s.blocks = &a
		} else {
			s.blocks = nil
		}
	}
	return &out
}

// Equal reports whether two chunks hold identical block data at the same
// position (versions, generation metadata and whether a section is stored
// uniform or dense are ignored).
func (c *Chunk) Equal(o *Chunk) bool {
	if c.Pos != o.Pos {
		return false
	}
	for i := range c.sections {
		a, b := &c.sections[i], &o.sections[i]
		var same bool
		switch {
		case a.dense && b.dense:
			same = *a.blocks == *b.blocks
		case a.dense:
			same = allBlocks(a.blocks, b.fill)
		case b.dense:
			same = allBlocks(b.blocks, a.fill)
		default:
			same = a.fill == b.fill
		}
		if !same {
			return false
		}
	}
	return true
}

// --- Binary encoding -------------------------------------------------------
//
// Format (little-endian):
//
//	magic   uint32  = 0x53564f43 ("SVOC")
//	posX    int32
//	posZ    int32
//	palLen  uint16          number of palette entries
//	palette palLen × uint16 packed Block keys, in order of first appearance
//	bits    uint8           index width in bits (1..16)
//	data    BlocksPerChunk*bits/8 bytes of packed indices
//
// Indices are packed LSB-first in (y, z, x) order. BlocksPerSection*bits
// is a multiple of 32, so section s's indices fill exactly the bytes
// [s*BlocksPerSection*bits/8, (s+1)*BlocksPerSection*bits/8): a uniform
// section encodes as its bits-byte pattern (eight copies of one index)
// repeated, and a section whose bytes repeat that way decodes as uniform.
//
// The palette makes typical terrain chunks (a handful of block types)
// encode in a few kilobytes instead of the raw 128 KiB.

const chunkMagic = 0x53564f43

// ErrBadChunkEncoding is returned by DecodeChunk for malformed input.
var ErrBadChunkEncoding = errors.New("world: bad chunk encoding")

// bitsFor returns the number of bits needed to index n palette entries.
func bitsFor(n int) uint {
	bits := uint(1)
	for (1 << bits) < n {
		bits++
	}
	return bits
}

// Encode serialises the chunk to the palette format described above.
func (c *Chunk) Encode() []byte {
	return c.EncodeAppend(nil)
}

// EncodeAppend serialises the chunk to the palette format described above,
// appending to dst and returning the extended slice. With a reused scratch
// buffer (`buf = c.EncodeAppend(buf[:0])`) it performs zero allocations
// once the buffer has grown to steady-state capacity — EncodeAppend is the
// hot path of chunk persistence, terrain generation and the wire protocol.
//
// A first pass discovers the palette straight into dst (first-appearance
// order; a uniform section contributes its one block), with a bitmap of
// the keys seen. A second pass writes each section's indices: a repeated
// byte pattern for a uniform section, a 64-bit accumulator over the blocks
// for a dense one.
func (c *Chunk) EncodeAppend(dst []byte) []byte {
	base := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, chunkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.X)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.Z)))
	dst = binary.LittleEndian.AppendUint16(dst, 0) // palLen, patched below
	palOff := len(dst)
	var seen [1 << 16 / 64]uint64
	add := func(b Block) {
		if k := b.key(); seen[k/64]&(1<<(k%64)) == 0 {
			seen[k/64] |= 1 << (k % 64)
			dst = binary.LittleEndian.AppendUint16(dst, k)
		}
	}
	for i := range c.sections {
		s := &c.sections[i]
		if !s.dense {
			add(s.fill)
			continue
		}
		last := s.blocks[0]
		add(last)
		for _, b := range s.blocks {
			if b != last {
				add(b)
				last = b
			}
		}
	}
	palLen := (len(dst) - palOff) / 2
	binary.LittleEndian.PutUint16(dst[base+12:], uint16(palLen))
	bits := bitsFor(palLen)
	dst = append(dst, byte(bits))
	secLen := BlocksPerSection * int(bits) / 8
	dataOff := len(dst)
	// Every data byte is written below, so the region needs no zeroing;
	// slices.Grow leaves a warm buffer in place.
	dst = slices.Grow(dst, SectionsPerChunk*secLen)[:dataOff+SectionsPerChunk*secLen]
	ix := newPaletteIndex(dst[palOff : palOff+2*palLen])
	for i := range c.sections {
		s := &c.sections[i]
		out := dst[dataOff+i*secLen : dataOff+(i+1)*secLen]
		if !s.dense {
			fillPattern(out, ix.of(s.fill), bits)
			continue
		}
		packSection(out, s.blocks, &ix, bits)
	}
	return dst
}

// paletteIndex maps a block to its index in an encoded palette: a linear
// scan over a small palette (the terrain norm, allocation-free), a table
// over all 64K keys for a wide one.
type paletteIndex struct {
	pal   []byte
	table []uint16
}

func newPaletteIndex(pal []byte) paletteIndex {
	ix := paletteIndex{pal: pal}
	if len(pal) > 2*64 {
		ix.table = make([]uint16, 1<<16)
		for j := 0; j < len(pal); j += 2 {
			ix.table[binary.LittleEndian.Uint16(pal[j:])] = uint16(j / 2)
		}
	}
	return ix
}

func (ix *paletteIndex) of(b Block) uint64 {
	key := b.key()
	if ix.table != nil {
		return uint64(ix.table[key])
	}
	for j := 0; j < len(ix.pal); j += 2 {
		if binary.LittleEndian.Uint16(ix.pal[j:]) == key {
			return uint64(j / 2)
		}
	}
	panic("world: block missing from its chunk's palette")
}

// fillPattern writes a uniform section's indices: eight copies of idx
// make one bits-byte pattern, repeated across out.
func fillPattern(out []byte, idx uint64, bits uint) {
	if idx == 0 {
		clear(out)
		return
	}
	var acc uint64
	var n uint
	o := 0
	for range 8 {
		acc |= idx << n
		for n += bits; n >= 8; n -= 8 {
			out[o] = byte(acc)
			acc >>= 8
			o++
		}
	}
	for n := int(bits); n < len(out); n *= 2 {
		copy(out[n:], out[:n])
	}
}

// packSection writes a dense section's palette indices into out through
// a 64-bit accumulator, a run of equal blocks at a time: the index is
// looked up once per run, and as many copies as the accumulator holds go
// in with one shift.
func packSection(out []byte, blocks *[BlocksPerSection]Block, ix *paletteIndex, bits uint) {
	var acc uint64
	var n uint
	o := 0
	for i := 0; i < len(blocks); {
		b := blocks[i]
		j := i + 1
		for j < len(blocks) && blocks[j] == b {
			j++
		}
		rep := replicate(ix.of(b), bits)
		for run := uint(j - i); run > 0; {
			m := min(run, (64-n)/bits)
			acc |= (rep & (1<<(m*bits) - 1)) << n
			n += m * bits
			run -= m
			for n >= 32 {
				binary.LittleEndian.PutUint32(out[o:], uint32(acc))
				o += 4
				acc >>= 32
				n -= 32
			}
		}
		i = j
	}
}

// replicate returns idx repeated every bits bits across 64 bits (the top
// copy may be cut short).
func replicate(idx uint64, bits uint) uint64 {
	for w := bits; w < 64; w *= 2 {
		idx |= idx << w
	}
	return idx
}

// DecodeChunk parses a chunk previously produced by Encode.
func DecodeChunk(buf []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := DecodeChunkInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeChunkInto parses a chunk previously produced by Encode into c,
// overwriting every block plus Pos, Version and GenWork — the chunk needs
// no prior reset, so a reused chunk decodes identically to a fresh one.
// On error the chunk's contents are unspecified. A section whose indices
// all match decodes as uniform; a dense one reuses c's array for that
// section when it has one, so a warm round trip over small palettes (the
// terrain norm) allocates nothing.
func DecodeChunkInto(c *Chunk, buf []byte) error {
	if len(buf) < 15 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadChunkEncoding, len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != chunkMagic {
		return fmt.Errorf("%w: bad magic", ErrBadChunkEncoding)
	}
	pos := ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	palLen := int(binary.LittleEndian.Uint16(buf[12:]))
	if palLen == 0 {
		return fmt.Errorf("%w: empty palette", ErrBadChunkEncoding)
	}
	off := 14
	if len(buf) < off+2*palLen+1 {
		return fmt.Errorf("%w: truncated palette", ErrBadChunkEncoding)
	}
	var palArr [64]Block
	var palette []Block
	if palLen <= len(palArr) {
		palette = palArr[:palLen]
	} else {
		palette = make([]Block, palLen)
	}
	for i := range palette {
		palette[i] = blockFromKey(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
	}
	bits := uint(buf[off])
	off++
	if bits == 0 || bits > 16 {
		return fmt.Errorf("%w: bad index width %d", ErrBadChunkEncoding, bits)
	}
	secLen := BlocksPerSection * int(bits) / 8
	if len(buf) < off+SectionsPerChunk*secLen {
		return fmt.Errorf("%w: truncated block data", ErrBadChunkEncoding)
	}
	c.Pos = pos
	c.Version = 0
	c.GenWork = 0
	for i := range c.sections {
		in := buf[off+i*secLen : off+(i+1)*secLen]
		s := &c.sections[i]
		if idx, ok := uniformIndex(in, bits); ok {
			if idx >= uint64(palLen) {
				return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
			}
			s.fill, s.dense = palette[idx], false
			continue
		}
		if s.blocks == nil {
			s.blocks = new([BlocksPerSection]Block)
		}
		s.dense = true
		if err := unpackSection(s.blocks, in, palette, bits); err != nil {
			return err
		}
	}
	return nil
}

// uniformIndex reports whether a section's packed indices are all the same
// index, and which: the bytes must repeat with period bits, and that
// period must be eight copies of the first index.
func uniformIndex(in []byte, bits uint) (uint64, bool) {
	if !bytes.Equal(in[bits:], in[:len(in)-int(bits)]) {
		return 0, false
	}
	idx := uint64(binary.LittleEndian.Uint16(in)) & (1<<bits - 1)
	var pat [16]byte
	fillPattern(pat[:bits], idx, bits)
	return idx, bytes.Equal(pat[:bits], in[:bits])
}

// unpackSection decodes a dense section's packed indices through the
// palette via a 64-bit accumulator, taking every leading copy of the
// current index at once.
func unpackSection(blocks *[BlocksPerSection]Block, in []byte, palette []Block, bits uint) error {
	mask := uint64(1)<<bits - 1
	var acc uint64
	var n uint
	o := 0
	lastIdx, rep := uint64(0), uint64(0) // replicate(0, bits) == 0
	for i := 0; i < len(blocks); {
		if n <= 32 && o < len(in) {
			acc |= uint64(binary.LittleEndian.Uint32(in[o:])) << n
			o += 4
			n += 32
		}
		idx := acc & mask
		if idx >= uint64(len(palette)) {
			return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
		}
		if idx != lastIdx {
			lastIdx, rep = idx, replicate(idx, bits)
		}
		// The first copy always matches, so m ≥ 1.
		m := min(uint(mathbits.TrailingZeros64(acc^rep)), n) / bits
		b := palette[idx]
		for k := i; k < i+int(m); k++ {
			blocks[k] = b
		}
		i += int(m)
		acc >>= m * bits
		n -= m * bits
	}
	return nil
}
