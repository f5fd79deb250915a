package terrain

import (
	"testing"
	"testing/quick"

	"servo/internal/world"
)

func TestFlatChunkShape(t *testing.T) {
	c := Flat{}.Generate(world.ChunkPos{X: 3, Z: -7})
	if c.Pos != (world.ChunkPos{X: 3, Z: -7}) {
		t.Fatalf("chunk pos = %v", c.Pos)
	}
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			if c.At(x, 0, z).ID != world.Bedrock {
				t.Fatalf("(%d,0,%d) = %v, want bedrock", x, z, c.At(x, 0, z))
			}
			if c.At(x, FlatSurfaceY, z).ID != world.Grass {
				t.Fatalf("surface at (%d,%d) = %v, want grass", x, z, c.At(x, FlatSurfaceY, z))
			}
			if got := c.SurfaceY(x, z); got != FlatSurfaceY {
				t.Fatalf("SurfaceY(%d,%d) = %d, want %d", x, z, got, FlatSurfaceY)
			}
			if !c.At(x, FlatSurfaceY+1, z).IsAir() {
				t.Fatal("block above surface must be air")
			}
		}
	}
}

func TestDefaultDeterministic(t *testing.T) {
	g1 := Default{Seed: 42}
	g2 := Default{Seed: 42}
	for _, pos := range []world.ChunkPos{{X: 0, Z: 0}, {X: -5, Z: 9}, {X: 100, Z: -100}} {
		a, b := g1.Generate(pos), g2.Generate(pos)
		if !a.Equal(b) {
			t.Fatalf("same seed produced different chunks at %v", pos)
		}
	}
}

func TestDefaultSeedSensitivity(t *testing.T) {
	a := Default{Seed: 1}.Generate(world.ChunkPos{})
	b := Default{Seed: 2}.Generate(world.ChunkPos{})
	if a.Equal(b) {
		t.Fatal("different seeds produced identical chunks")
	}
}

func TestDefaultChunkWellFormed(t *testing.T) {
	c := Default{Seed: 7}.Generate(world.ChunkPos{X: 2, Z: 2})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			if c.At(x, 0, z).ID != world.Bedrock {
				t.Fatal("bottom layer must be bedrock")
			}
			h := -1
			for y := world.ChunkSizeY - 1; y >= 0; y-- {
				if c.At(x, y, z).ID.Solid() {
					h = y
					break
				}
			}
			if h < 1 || h >= world.ChunkSizeY-1 {
				t.Fatalf("column (%d,%d) surface %d out of range", x, z, h)
			}
			// No floating air pockets below the surface except water columns.
			for y := 1; y < h; y++ {
				if c.At(x, y, z).IsAir() {
					t.Fatalf("air pocket below surface at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestDefaultHeightContinuityAcrossChunkBorder(t *testing.T) {
	// Height fields must be continuous across chunk boundaries: adjacent
	// columns generated in different chunks differ by a bounded step.
	g := Default{Seed: 99}
	a := g.Generate(world.ChunkPos{X: 0, Z: 0})
	b := g.Generate(world.ChunkPos{X: 1, Z: 0})
	for z := 0; z < world.ChunkSizeZ; z++ {
		ha := a.SurfaceY(world.ChunkSizeX-1, z)
		hb := b.SurfaceY(0, z)
		diff := ha - hb
		if diff < 0 {
			diff = -diff
		}
		if diff > 8 {
			t.Fatalf("height discontinuity %d at border z=%d (%d vs %d)", diff, z, ha, hb)
		}
	}
}

func TestDefaultHasWaterAndVariedSurface(t *testing.T) {
	g := Default{Seed: 3}
	water, surfaces := 0, map[world.BlockID]int{}
	for cx := -6; cx < 6; cx++ {
		for cz := -6; cz < 6; cz++ {
			c := g.Generate(world.ChunkPos{X: cx, Z: cz})
			for x := 0; x < world.ChunkSizeX; x += 4 {
				for z := 0; z < world.ChunkSizeZ; z += 4 {
					if c.At(x, seaLevel, z).ID == world.Water {
						water++
					}
					if h := c.SurfaceY(x, z); h > 0 {
						surfaces[c.At(x, h, z).ID]++
					}
				}
			}
		}
	}
	if water == 0 {
		t.Error("default terrain generated no water anywhere in 144 chunks")
	}
	if len(surfaces) < 2 {
		t.Errorf("default terrain has uniform surface %v, want varied biomes", surfaces)
	}
}

func TestNoiseBounded(t *testing.T) {
	g := Default{Seed: 5}
	f := func(x, z int16, oct uint8) bool {
		v := g.noise(float64(x)/7.3, float64(z)/11.9, int64(oct))
		return v >= -1.001 && v <= 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkUnitsOrdering(t *testing.T) {
	if (Flat{}).WorkUnits() >= (Default{}).WorkUnits() {
		t.Fatal("flat world must be cheaper to generate than default")
	}
	if (Flat{}).WorkUnits() <= 0 {
		t.Fatal("work units must be positive")
	}
}

func TestForWorldType(t *testing.T) {
	if g := ForWorldType("flat", 1); g.Name() != "flat" {
		t.Fatalf("ForWorldType(flat) = %s", g.Name())
	}
	if g := ForWorldType("default", 1); g.Name() != "default" {
		t.Fatalf("ForWorldType(default) = %s", g.Name())
	}
	if g := ForWorldType("unknown", 1); g.Name() != "default" {
		t.Fatalf("unknown world type must fall back to default, got %s", g.Name())
	}
}

func TestGeneratedChunkEncodesRoundTrip(t *testing.T) {
	// Generated chunks must survive the persistence encoding: this is the
	// path Servo uses to ship function-generated terrain back to the
	// server.
	for _, g := range []Generator{Flat{}, Default{Seed: 11}} {
		c := g.Generate(world.ChunkPos{X: 1, Z: 1})
		dec, err := world.DecodeChunk(c.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", g.Name(), err)
		}
		if !dec.Equal(c) {
			t.Fatalf("%s: encode/decode changed the chunk", g.Name())
		}
	}
}

// TestGeneratedChunksAreCompact pins the sectioned representation of
// generated terrain: Compact leaves no dense section that holds a single
// block type, so a generated chunk is as small as a decoded one, and
// natural terrain is mostly uniform sections (863 of 1024 on this area).
func TestGeneratedChunksAreCompact(t *testing.T) {
	flat := Flat{}.Generate(world.ChunkPos{X: 5})
	if got := flat.UniformSections(); got != world.SectionsPerChunk-1 {
		t.Fatalf("flat chunk has %d uniform sections, want %d", got, world.SectionsPerChunk-1)
	}
	g := Default{Seed: 42}
	uniform, total := 0, 0
	for x := 0; x < 8; x++ {
		for z := 0; z < 8; z++ {
			c := g.Generate(world.ChunkPos{X: x, Z: z})
			dec, err := world.DecodeChunk(c.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if c.UniformSections() != dec.UniformSections() {
				t.Fatalf("chunk (%d,%d): %d uniform sections generated, %d decoded", x, z, c.UniformSections(), dec.UniformSections())
			}
			uniform += c.UniformSections()
			total += world.SectionsPerChunk
		}
	}
	t.Logf("%d of %d default-terrain sections uniform", uniform, total)
	if uniform*100 < total*80 {
		t.Fatalf("%d of %d default-terrain sections uniform, want at least 80%%", uniform, total)
	}
}

func BenchmarkDefaultGenerate(b *testing.B) {
	g := Default{Seed: 42}
	for i := 0; i < b.N; i++ {
		g.Generate(world.ChunkPos{X: i % 8, Z: i / 8 % 8})
	}
}
