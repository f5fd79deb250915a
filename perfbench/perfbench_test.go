package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"servo/internal/mve"
	"servo/internal/world"
)

type fakeBase struct{ loads, stores int }

func (f *fakeBase) Load(world.ChunkPos, func(*world.Chunk, bool)) { f.loads++ }
func (f *fakeBase) Store(*world.Chunk)                            { f.stores++ }

type fakeBatch struct{ f *fakeBase }

func (b fakeBatch) LoadMany(pos []world.ChunkPos, _ func(world.ChunkPos, *world.Chunk, bool)) {
	b.f.loads += len(pos)
}

type fakeSync struct{ f *fakeBase }

func (y fakeSync) StoreThen(_ *world.Chunk, done func()) { y.f.stores++; done() }

type fakeObs struct{}

func (fakeObs) ObserveAvatars([]world.BlockPos, int) {}

type fakePlayer struct{}

func (fakePlayer) SavePlayer(string, []byte)             {}
func (fakePlayer) LoadPlayer(string, func([]byte, bool)) {}

// TestWrapStoreKeepsSeams checks that the span wrapper exposes exactly
// the optional interfaces of the store it wraps, for the shapes the
// program builds (rstore: all four; the uncached blob store: all but
// AvatarObserver) and the extremes.
func TestWrapStoreKeepsSeams(t *testing.T) {
	f := &fakeBase{}
	stores := map[string]mve.ChunkStore{
		"plain": f,
		"observer": struct {
			*fakeBase
			fakeObs
		}{f, fakeObs{}},
		"uncached": struct {
			*fakeBase
			fakeBatch
			fakeSync
			fakePlayer
		}{f, fakeBatch{f}, fakeSync{f}, fakePlayer{}},
		"rstore": struct {
			*fakeBase
			fakeBatch
			fakeSync
			fakeObs
			fakePlayer
		}{f, fakeBatch{f}, fakeSync{f}, fakeObs{}, fakePlayer{}},
	}
	for name, inner := range stores {
		tr := newTracer(workers, 0, "test")
		got := tr.wrapStore(inner)
		if seamsOf(got) != seamsOf(inner) {
			t.Errorf("%s: wrapper exposes seams %04b, store has %04b", name, seamsOf(got), seamsOf(inner))
		}
		calls := 1
		got.Store(world.NewChunk(world.ChunkPos{}))
		if sy, ok := got.(mve.SyncingChunkStore); ok {
			sy.StoreThen(world.NewChunk(world.ChunkPos{}), func() {})
			calls++
		}
		if f.stores != calls || tr.store.calls.Load() != int64(calls) {
			t.Errorf("%s: %d stores reached the store, %d were timed, want %d", name, f.stores, tr.store.calls.Load(), calls)
		}
		f.stores = 0
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"servo/internal/world.(*Chunk).EncodeAppend":     "world",
		"servo/internal/servo/rstore.(*Store).Load":      "rstore",
		"servo/internal/mve.(*Server).tick.func1":        "mve",
		"servo/internal/core.New":                        "other",
		"servo.(*Instance).Locked":                       "other",
		"main.obsSeam.ObserveAvatars":                    "other",
		"servo/internal/world.Ring[go.shape.int].Append": "world",
		"runtime.mallocgc":                               "",
		"slices.SortFunc[...]":                           "",
	} {
		got, _ := moduleOf(fn)
		if got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestModuleShares profiles chunk encoding, decodes the profile, and
// checks that the shares sum to 1 and charge the work to world.
func TestModuleShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	c := world.NewChunk(world.ChunkPos{X: 1})
	for x := 0; x < world.ChunkSizeX; x++ {
		for y := 0; y < 64; y++ {
			c.Set(x, y, x%world.ChunkSizeZ, world.Block{ID: world.Stone})
		}
	}
	var out []byte
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		out = c.EncodeAppend(out[:0])
	}
	pprof.StopCPUProfile()
	shares, err := moduleShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares["world"] < 0.5 {
		t.Errorf("world share %v, want most of the profile: %v", shares["world"], shares)
	}
}
