// The benchmark suite behind `servo-bench -format json`: each harness
// builds a deterministic load, measures it, and records headline
// metrics into the artifact. Wall measurements go through
// testing.Benchmark so ns/op and allocs/op come from the standard
// auto-scaling machinery rather than hand-rolled timing loops.

package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"servo"
	"servo/internal/cluster"
	"servo/internal/core"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/scenario"
	"servo/internal/servo/rstore"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// ScenarioName is the bundled scenario the suite runs for its virtual
// tick/handoff percentiles and the engine-throughput measurement: a
// sharded run with visibility, storage, and cross-shard handoffs on a
// 2-minute virtual window that simulates in seconds of wall time.
const ScenarioName = "border-patrol"

// digestEntries sizes the digest encode harnesses.
const digestEntries = 512

// suiteStep is one harness of the suite: a build-load-measure unit that
// declares the metric names it records, so -only can select it without
// running everything else first.
type suiteStep struct {
	name    string
	metrics []string
	run     func(f *File) error
}

// steps enumerates the suite in recording order.
func steps() []suiteStep {
	return []suiteStep{
		{"engine tick (200 constructs, 100 players)",
			[]string{"engine_tick_wall_us"},
			func(f *File) error {
				f.Add("engine_tick_wall_us", "us/tick", Lower, true, engineTick()/1e3)
				return nil
			}},
		{"steady-state tick allocations (50 idle players)",
			[]string{"tick_steady_allocs_per_op"},
			func(f *File) error {
				f.Add("tick_steady_allocs_per_op", "allocs/op", Lower, true, steadyTickAllocs())
				return nil
			}},
		{"parallel engine tick (4 shards, workers=4)",
			[]string{"engine_tick_wall_us_parallel", "tick_parallel_speedup_x"},
			func(f *File) error {
				parNs, speedup := parallelTick()
				f.Add("engine_tick_wall_us_parallel", "us/tick", Lower, true, parNs/1e3)
				f.Add("tick_parallel_speedup_x", "x", Higher, true, speedup)
				return nil
			}},
		{"saturated parallel tick (overlong ticks, phase lock on/off)",
			[]string{"tick_parallel_speedup_saturated_x", "tick_parallel_speedup_saturated_unlocked_x"},
			func(f *File) error {
				// The work/span ratio weighs real callback wall times, so
				// like every wall metric it keeps the best of wallRounds
				// independent rounds against co-tenant noise.
				var locked, unlocked float64
				for r := 0; r < wallRounds; r++ {
					if v := saturatedSpeedup(true); v > locked {
						locked = v
					}
					if v := saturatedSpeedup(false); v > unlocked {
						unlocked = v
					}
				}
				f.Add("tick_parallel_speedup_saturated_x", "x", Higher, true, locked)
				// The no-phase-lock decay, recorded (not gated) so every
				// artifact carries the comparison: without re-phase-locking,
				// overlong ticks drift the shards off any shared timestamp
				// and waves collapse.
				f.Add("tick_parallel_speedup_saturated_unlocked_x", "x", Higher, false, unlocked)
				return nil
			}},
		{"chunk codec round trip (zero-alloc contract)",
			[]string{"chunk_codec_ns_per_op", "chunk_codec_allocs_per_op"},
			func(f *File) error {
				chunkCodecMetrics(f)
				return nil
			}},
		{"chunk generation storm (4 shards, cold default world)",
			[]string{"chunk_storm_wall_us", "chunk_apply_ns_per_chunk", "gen_dedup_x"},
			func(f *File) error {
				chunkStormMetrics(f)
				return nil
			}},
		{"terrain demand scan (100 players)",
			[]string{"terrain_scan_inc_ns_per_player", "terrain_scan_inc_allocs_per_op",
				"terrain_scan_full_ns_per_player", "terrain_scan_full_allocs_per_op",
				"terrain_scan_speedup_x"},
			func(f *File) error {
				terrainScanMetrics(f)
				return nil
			}},
		{fmt.Sprintf("storage prefetch observe (%d avatars, radius %d)", rstore.ObserveBenchAvatars, rstore.ObserveBenchRadius),
			[]string{"store_observe_ns_per_avatar", "store_observe_allocs_per_op"},
			func(f *File) error {
				storeObserveMetrics(f)
				return nil
			}},
		{"scenario " + ScenarioName,
			[]string{"tick_p99_virtual_ms", "handoff_p99_virtual_ms", "scenario_bots_per_wallsec"},
			scenarioMetrics},
		{fmt.Sprintf("ghost digest encode (%d entries)", digestEntries),
			[]string{"digest_encode_ns_per_entry", "digest_encode_allocs_per_op",
				"digest_delta_ns_per_entry", "digest_delta_allocs_per_op"},
			func(f *File) error {
				digestMetrics(f)
				return nil
			}},
		{"visibility scan, 1000 border residents",
			[]string{"vis_scan_1k_inc_ns_per_resident", "vis_scan_1k_inc_allocs_per_op",
				"vis_scan_1k_full_ns_per_resident", "vis_scan_1k_full_allocs_per_op"},
			func(f *File) error {
				scanMetrics(f, 1000)
				return nil
			}},
		{"visibility scan, 4000 border residents",
			[]string{"vis_scan_4k_inc_ns_per_resident", "vis_scan_4k_inc_allocs_per_op",
				"vis_scan_4k_full_ns_per_resident", "vis_scan_4k_full_allocs_per_op"},
			func(f *File) error {
				scanMetrics(f, 4000)
				return nil
			}},
	}
}

// Run executes the suite and returns the artifact. only, when non-empty,
// is a substring filter over metric names: only the harnesses recording a
// matching metric run, and only matching metrics are kept — `servo-bench
// -only chunk_` re-measures the chunk pipeline without paying for the
// rest of the suite. logf (may be nil) receives progress lines.
func Run(pr int, only string, logf func(format string, args ...any)) (File, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := NewFile(pr)
	matched := false
	for _, st := range steps() {
		if only != "" && !stepMatches(st, only) {
			continue
		}
		matched = true
		logf("bench: %s", st.name)
		if err := st.run(&f); err != nil {
			return File{}, err
		}
	}
	if !matched {
		return File{}, fmt.Errorf("bench: no suite metric matches -only %q", only)
	}
	if only != "" {
		kept := f.Metrics[:0]
		for _, m := range f.Metrics {
			if strings.Contains(m.Name, only) {
				kept = append(kept, m)
			}
		}
		f.Metrics = kept
	}
	return f, nil
}

func stepMatches(st suiteStep, only string) bool {
	for _, name := range st.metrics {
		if strings.Contains(name, only) {
			return true
		}
	}
	return false
}

// wallRounds is how many independent rounds each wall measurement
// takes; the best round is recorded. Wall noise on a shared machine is
// one-sided (co-tenant slowdowns), so the minimum is the stable
// estimator — a single round leaves the benchdiff gate flapping on
// machine load rather than code changes.
const wallRounds = 3

// wallBench measures fn via the standard benchmark machinery, keeping
// the best of wallRounds rounds.
func wallBench(fn func()) (nsPerOp, allocsPerOp float64) {
	for r := 0; r < wallRounds; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		ns, allocs := float64(res.NsPerOp()), float64(res.AllocsPerOp())
		if r == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if r == 0 || allocs < allocsPerOp {
			allocsPerOp = allocs
		}
	}
	return nsPerOp, allocsPerOp
}

// engineTick measures one fully-loaded game tick (the bench_test.go
// BenchmarkEngineTick load: 200 constructs, 100 players), in wall ns.
func engineTick() float64 {
	inst := servo.NewInstance(servo.Config{Seed: 1, WorldType: "flat", Servo: servo.Serverless{Constructs: true}})
	defer inst.Stop()
	for i := 0; i < 200; i++ {
		inst.SpawnConstruct(servo.NewConstructSized(250), servo.At((i%14)*15-105, 5, (i/14)*15-105))
	}
	for i := 0; i < 100; i++ {
		inst.Connect("p", servo.BehaviorBounded)
	}
	inst.Run(10 * 50 * 1000000) // warm-up: 10 ticks
	ns, _ := wallBench(func() { inst.Run(50 * 1000000) })
	return ns
}

// parallelTick measures one loaded tick of a four-shard cluster under
// the lane-batched scheduler (workers=4): 120 sixty-block constructs
// balanced across a 2×2 region grid plus 8 players, so every shard's
// tick does comparable live work. It returns the wall ns per tick and
// the scheduler's work/span ratio — the parallelism the lane schedule
// exposes (summed callback work over serial segments plus each wave's
// longest lane). The ratio is what a worker pool with enough cores
// realises as wall speedup; recording it instead of raw wall division
// keeps the metric meaningful on small or loaded CI machines, where four
// goroutines time-slice one core and the wall clock measures the
// scheduler's overhead rather than its schedule.
//
// The load is sized to keep every shard's modelled tick duration —
// noise and GC tails included — under the 50 ms tick budget: an
// overlong tick reschedules after its own duration, permanently
// phase-shifting that shard away from the others, and lane waves only
// form across shards ticking at the same virtual timestamp. (That decay
// is the simulation being faithful to an overloaded server, not a
// scheduler defect — but this benchmark is about the schedule, so it
// stays inside the budget.) Constructs simulate locally for the same
// reason: serverless construct work runs in the shared platform's
// serial completion events, outside the shard lanes.
func parallelTick() (nsPerTick, speedup float64) {
	inst := servo.NewInstance(servo.Config{
		Seed:      1,
		WorldType: "flat",
		Shards:    4,
		Topology:  servo.TopologyConfig{Kind: "grid", TilesX: 2, TilesZ: 2},
		Workers:   4,
	})
	defer inst.Stop()
	// 30 constructs per grid quadrant, mirrored over both axes.
	for i := 0; i < 120; i++ {
		sx, sz := 1, 1
		if i%2 == 1 {
			sx = -1
		}
		if i%4 >= 2 {
			sz = -1
		}
		k := i / 4
		inst.SpawnConstruct(servo.NewConstructSized(60), servo.At(sx*(30+(k%6)*15), 5, sz*(30+(k/6)*15)))
	}
	for i := 0; i < 8; i++ {
		inst.Connect(fmt.Sprintf("p%d", i), servo.BehaviorBounded)
	}
	inst.Run(10 * 50 * 1000000) // warm-up: 10 ticks
	inst.ResetParallelStats()
	ns, _ := wallBench(func() { inst.Run(50 * 1000000) })
	return ns, inst.ParallelSpeedup()
}

// steadyTickAllocs measures heap allocations per tick of a settled
// server: 50 idle players whose terrain has fully streamed in, so every
// tick is the steady-state fast path — demand-cursor skips, reused scan
// buffers, the recycled tick event, and the head-indexed send queues.
// The target is zero.
func steadyTickAllocs() float64 {
	loop := sim.NewLoop(5)
	srv := mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 64})
	for i := 0; i < 50; i++ {
		srv.ConnectAt(fmt.Sprintf("p%d", i), nil, float64((i%10)*12-54), float64(i/10*12-24))
	}
	srv.Start()
	// Settle: stream every demanded chunk and drain the send queues, so
	// the measured window holds no residual churn.
	loop.RunUntil(loop.Now() + 30*time.Second)
	_, allocs := wallBench(func() {
		loop.RunUntil(loop.Now() + mve.DefaultTickInterval)
	})
	return allocs
}

// saturatedSpeedup measures the lane scheduler's work/span ratio on a
// four-shard cluster whose modelled tick cost (70 ms base, lognormal
// noise) overruns the 50 ms budget on every tick. Without
// re-phase-locking each overlong tick reschedules after its own noisy
// duration, so the shards drift onto disjoint timestamps and waves
// collapse toward serial execution; with PhaseLock the next tick snaps
// to the global interval grid — every shard settles into the same
// skip-a-beat cadence — and cross-shard waves re-form.
func saturatedSpeedup(phaseLock bool) float64 {
	loop := sim.NewLoop(13)
	loop.SetWorkers(4)
	over := mve.CostParams{TickBase: 70 * time.Millisecond, NoiseSigma: 0.08}
	topo := world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 8}
	c := cluster.New(loop, cluster.Config{
		Shards:   4,
		Topology: topo,
	}, func(i int, region world.Region) *mve.Server {
		srv := mve.NewServer(loop.Lane(i+1), mve.Config{
			WorldType:    "flat",
			ViewDistance: 32,
			Cost:         &over,
			PhaseLock:    phaseLock,
			Region:       region,
		})
		// A block of local constructs per shard: real circuit work on
		// the shard's lane every tick, so the work/span profile weighs
		// the schedule rather than the serial control-plane events.
		home := topo.Center(world.HomeTile(topo, 4, i))
		for k := 0; k < 8; k++ {
			srv.SpawnConstruct(sc.BuildSized(60),
				world.BlockPos{X: home.X + (k%4)*15 - 22, Y: 5, Z: home.Z + (k/4)*15 - 7})
		}
		return srv
	})
	defer c.Stop()
	// Two idle residents per quadrant keep the player paths live too.
	for i := 0; i < 8; i++ {
		x, z := 40, 40
		if i%2 == 1 {
			x = -40
		}
		if i%4 >= 2 {
			z = -40
		}
		c.ConnectAt(fmt.Sprintf("s%d", i), nil, world.BlockPos{X: x, Z: z})
	}
	c.Start()
	// Let the phases diverge (or re-lock) before profiling.
	loop.RunUntil(loop.Now() + 5*time.Second)
	loop.ResetBatchStats()
	loop.RunUntil(loop.Now() + 60*time.Second)
	return loop.BatchStats().Speedup()
}

// newScanServer builds a single-shard server with n stationary players
// spread over a settled flat world — every demanded chunk streamed in
// and acknowledged — so repeated demand scans isolate the scan itself.
// full selects the full-rescan baseline mode.
func newScanServer(n int, full bool) *mve.Server {
	loop := sim.NewLoop(9)
	srv := mve.NewServer(loop, mve.Config{
		WorldType:        "flat",
		ViewDistance:     64,
		FullDemandRescan: full,
	})
	for i := 0; i < n; i++ {
		srv.ConnectAt(fmt.Sprintf("p%d", i), nil, float64((i%10)*24-108), float64(i/10*24-108))
	}
	srv.Start()
	loop.RunUntil(loop.Now() + 30*time.Second)
	srv.ScanTerrainDemand() // warm the demand cursors outside the loop
	return srv
}

// terrainScanMetrics measures one terrain-demand scan over a settled
// 100-player fleet, incremental (demand cursors, the tick fast path)
// vs. the full per-player rescan baseline, and records the speedup the
// cursor buys. The incremental steady state must not allocate.
func terrainScanMetrics(f *File) {
	const players = 100
	inc := newScanServer(players, false)
	incNs, incAllocs := wallBench(inc.ScanTerrainDemand)
	full := newScanServer(players, true)
	fullNs, fullAllocs := wallBench(full.ScanTerrainDemand)
	f.Add("terrain_scan_inc_ns_per_player", "ns/player", Lower, true, incNs/players)
	f.Add("terrain_scan_inc_allocs_per_op", "allocs/op", Lower, true, incAllocs)
	// The pre-cursor baseline, recorded (not gated) so every artifact
	// carries the comparison it claims.
	f.Add("terrain_scan_full_ns_per_player", "ns/player", Lower, false, fullNs/players)
	f.Add("terrain_scan_full_allocs_per_op", "allocs/op", Lower, false, fullAllocs)
	f.Add("terrain_scan_speedup_x", "x", Higher, true, fullNs/incNs)
}

// storeObserveMetrics measures one storage prefetch observation
// (rstore.ObserveAvatars) over rstore.NewObserveBench's load: clustered
// avatars, every chunk around them already local, so the measurement is
// the union walk plus the cache's local-hit checks and no fetch is
// issued. The steady state must not allocate.
func storeObserveMetrics(f *File) {
	store, avatars := rstore.NewObserveBench(13)
	ns, allocs := wallBench(func() { store.ObserveAvatars(avatars, rstore.ObserveBenchRadius) })
	f.Add("store_observe_ns_per_avatar", "ns/avatar", Lower, true, ns/float64(len(avatars)))
	f.Add("store_observe_allocs_per_op", "allocs/op", Lower, true, allocs)
}

// scenarioMetrics runs the bundled benchmark scenario and records its
// virtual percentiles (deterministic: off the simulation clock) and the
// engine throughput in bots simulated per wall-second. The throughput
// is the best of wallRounds runs — the virtual metrics are replay-
// identical across them, only the wall clock varies.
func scenarioMetrics(f *File) error {
	spec, err := scenario.LoadBundled(ScenarioName)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(spec, nil)
	if err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("bench: scenario %s failed its assertions", ScenarioName)
	}
	for r := 1; r < wallRounds; r++ {
		again, err := scenario.Run(spec, nil)
		if err != nil {
			return err
		}
		if again.Wall > 0 && (rep.Wall <= 0 || again.Wall < rep.Wall) {
			rep.Wall, rep.BotSeconds = again.Wall, again.BotSeconds
		}
	}
	for name, rec := range map[string]string{
		"tick_p99_virtual_ms":    "tick_p99_ms",
		"handoff_p99_virtual_ms": "handoff_p99_ms",
	} {
		found := false
		for _, m := range rep.Metrics {
			if m.Name == rec {
				f.Add(name, "virtual ms", Lower, true, m.Value)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bench: scenario %s reported no %s", ScenarioName, rec)
		}
	}
	if rep.Wall <= 0 || rep.BotSeconds <= 0 {
		return fmt.Errorf("bench: scenario %s recorded no throughput (wall %v, bot-seconds %g)", ScenarioName, rep.Wall, rep.BotSeconds)
	}
	f.Add("scenario_bots_per_wallsec", "bot-s/s", Higher, true, rep.BotSeconds/rep.Wall.Seconds())
	return nil
}

// chunkCodecMetrics measures one warm encode+decode round trip of a
// terrain-shaped chunk through the zero-alloc paths: EncodeAppend into a
// reused buffer and DecodeChunkInto over a pool-recycled chunk. The
// allocs/op gate is an exact zero — the chunk-churn fast path's whole
// premise is that codec work stopped feeding the garbage collector.
func chunkCodecMetrics(f *File) {
	c := world.NewChunk(world.ChunkPos{X: 2, Z: -7})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			for y := 0; y < 60; y++ {
				c.Set(x, y, z, world.Block{ID: world.Stone})
			}
			c.Set(x, 60, z, world.Block{ID: world.Grass})
		}
	}
	buf := c.EncodeAppend(nil) // warm the buffer outside the measurement
	dec := new(world.Chunk)
	ns, allocs := wallBench(func() {
		buf = c.EncodeAppend(buf[:0])
		if err := world.DecodeChunkInto(dec, buf); err != nil {
			panic(err)
		}
	})
	f.Add("chunk_codec_ns_per_op", "ns/op", Lower, true, ns)
	f.Add("chunk_codec_allocs_per_op", "allocs/op", Lower, true, allocs)
}

// chunkStormMetrics measures the chunk-churn fast path end to end: a
// four-shard cluster over a cold default world takes a 32-player
// star-walker herd whose view rectangles straddle every tile seam, so one
// measured window exercises batched store loads, bounded nearest-first
// generation dispatch, pooled decode, and cross-shard dedup adoption at
// once. The virtual work is seed-deterministic, so rounds differ only in
// wall time and the best round is kept; the per-chunk apply cost divides
// that wall time by the (identical every round) chunks applied. The
// dedup factor — demanded seam chunks per FaaS invocation actually paid
// — comes off the same run's counters.
func chunkStormMetrics(f *File) {
	const (
		herd     = 32
		window   = 10 * time.Second
		tileSpan = 4 * world.ChunkSizeX // TileChunks:4 tiles
	)
	var bestNs, chunks, dedupX float64
	for r := 0; r < wallRounds; r++ {
		loop := sim.NewLoop(17)
		loop.SetWorkers(4)
		sys := core.New(loop, core.Config{
			Seed:         17,
			WorldType:    "default",
			ViewDistance: 64,
			ServerlessTG: true,
			ServerlessRS: true,
			Shards:       4,
			Workers:      4,
			Topology:     world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 4},
		})
		sys.Cluster.Start()
		loop.RunUntil(loop.Now() + 2*time.Second) // settle the boot terrain
		for i := 0; i < herd; i++ {
			// Eight walkers per tile, centered on the 2×2 grid's four tiles.
			tx, tz := i%2, (i/2)%2
			sys.Cluster.ConnectAt(fmt.Sprintf("s%d", i), workload.ForName("S8"),
				world.BlockPos{X: tx*tileSpan + tileSpan/2, Y: 0, Z: tz*tileSpan + tileSpan/2})
		}
		var applied0, invoked0 int64
		deduped0 := 0
		for _, sh := range sys.Shards {
			applied0 += sh.Server.ChunksApplied.Value()
			deduped0 += sh.TGBackend.GenDeduped
		}
		invoked0 = int64(sys.TGFn.Invocations.Count())
		start := time.Now()
		loop.RunUntil(loop.Now() + window)
		ns := float64(time.Since(start).Nanoseconds())
		var applied int64
		deduped := 0
		for _, sh := range sys.Shards {
			applied += sh.Server.ChunksApplied.Value()
			deduped += sh.TGBackend.GenDeduped
		}
		invoked := int64(sys.TGFn.Invocations.Count()) - invoked0
		sys.Cluster.Stop()
		if r == 0 || ns < bestNs {
			bestNs = ns
		}
		chunks = float64(applied - applied0)
		dedupX = float64(int(invoked)+deduped-deduped0) / float64(invoked)
	}
	f.Add("chunk_storm_wall_us", "us", Lower, true, bestNs/1e3)
	f.Add("chunk_apply_ns_per_chunk", "ns/chunk", Lower, true, bestNs/chunks)
	f.Add("gen_dedup_x", "x", Higher, true, dedupX)
}

// digestMetrics measures the digest wire forms: the stateless full
// encoding, and the steady-state delta path (same membership, moving
// positions), which must not allocate.
func digestMetrics(f *File) {
	entries := make([]cluster.DigestEntry, digestEntries)
	for i := range entries {
		entries[i] = cluster.DigestEntry{
			Name: fmt.Sprintf("player-%04d", i),
			X:    float64(i) * 3, Z: float64(i%7) * 5,
			Home: i % 2,
		}
	}
	ns, allocs := wallBench(func() {
		if _, err := cluster.EncodeGhostDigest(entries); err != nil {
			panic(err)
		}
	})
	f.Add("digest_encode_ns_per_entry", "ns/entry", Lower, true, ns/digestEntries)
	f.Add("digest_encode_allocs_per_op", "allocs/op", Lower, true, allocs)

	var enc cluster.DigestEncoder
	if _, err := enc.Encode(entries, 1); err != nil { // first contact: full
		panic(err)
	}
	i := 0
	ns, allocs = wallBench(func() {
		entries[i%digestEntries].X += 0.5 // steady movement, stable membership
		i++
		if _, err := enc.Encode(entries, 1); err != nil {
			panic(err)
		}
	})
	f.Add("digest_delta_ns_per_entry", "ns/entry", Lower, true, ns/digestEntries)
	f.Add("digest_delta_allocs_per_op", "allocs/op", Lower, true, allocs)
}

// NewScanCluster builds a two-shard visibility cluster with n idle
// border residents paired across a band seam, spaced along Z so each
// pair audits locally, with membership caches warmed by one scan. full
// selects the full-rescan baseline mode.
func NewScanCluster(n int, full bool) *cluster.Cluster {
	loop := sim.NewLoop(7)
	c := cluster.New(loop, cluster.Config{
		Shards:     2,
		Topology:   world.BandTopology{BandChunks: 4},
		Visibility: cluster.VisibilityConfig{Enabled: true, Margin: 16, FullRescan: full},
	}, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	for i := 0; i < n; i++ {
		x := 60 // 4 blocks west of the x=64 band seam, shard 0
		if i%2 == 1 {
			x = 70 // 6 blocks east, shard 1
		}
		c.ConnectAt(fmt.Sprintf("r%d", i), nil, world.BlockPos{X: x, Y: 0, Z: (i / 2) * 48})
	}
	c.VisibilityScanOnce()
	return c
}

// scanMetrics measures one visibility replication tick over n border
// residents, incremental vs. the full-rescan baseline, and records the
// allocation improvement factor the incremental path buys.
func scanMetrics(f *File, n int) {
	tag := fmt.Sprintf("vis_scan_%dk", n/1000)
	inc := NewScanCluster(n, false)
	incNs, incAllocs := wallBench(inc.VisibilityScanOnce)
	full := NewScanCluster(n, true)
	fullNs, fullAllocs := wallBench(full.VisibilityScanOnce)
	f.Add(tag+"_inc_ns_per_resident", "ns/resident", Lower, true, incNs/float64(n))
	f.Add(tag+"_inc_allocs_per_op", "allocs/op", Lower, true, incAllocs)
	// The pre-incremental baseline, recorded (not gated) so every artifact
	// carries the comparison it claims. (The _alloc_improvement ratio the
	// artifact used to carry is gone: BordersWithinAppend made the full
	// path allocation-free too, so the ratio degenerated to 0/0 — the
	// gated absolute allocs/op rows above are the surviving contract.)
	f.Add(tag+"_full_ns_per_resident", "ns/resident", Lower, false, fullNs/float64(n))
	f.Add(tag+"_full_allocs_per_op", "allocs/op", Lower, false, fullAllocs)
}
