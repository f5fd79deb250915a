package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"servo/internal/blob"
	"servo/internal/core"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// interval is the 50 ms tick interval; slice timings are reported per
// interval.
const interval = 50 * time.Millisecond

// slice is the virtual time the measured window advances per host timing
// sample: two tick intervals. A single interval is a poor unit when
// shards run overlong ticks: about half the intervals then hold no tick
// at all, and the median falls between the empty and the busy ones.
const slice = 2 * interval

// setupRounds is how many times an untraced run builds and warms the
// system; setup_s is the median, and the last build is measured.
const setupRounds = 3

// virtualWorkload is a fixed-input workload on the virtual clock.
type virtualWorkload struct {
	name   string
	warmup time.Duration
	// perSecond is the virtual time the measured window covers per
	// requested --seconds, calibrated so that one window takes about that
	// many host seconds on a 2-core box. The window is fixed in virtual
	// time, so the simulated load does not depend on host speed and every
	// virtual statistic repeats exactly for a given seed.
	perSecond time.Duration
	// minWindow is the shortest measured window, so that a short run
	// still covers the workload's defining events.
	minWindow time.Duration
	config    func(seed int64) core.Config
	// populate places constructs and schedules joins and events on a
	// freshly built, not yet started system.
	populate func(r *vrun)
	// systems is how many independent systems an untraced run measures,
	// one after the other, pooling their windows: more realizations of a
	// workload whose outcome varies with the seed.
	systems int
	// gate checks the workload's outputs after the measured window.
	gate func(r *vrun, res *result, win counters)
}

// vrun is one built system of a virtual workload.
type vrun struct {
	loop *sim.Loop
	sys  *core.System
	// rng drives harness decisions (behaviour mix), seeded apart from
	// the simulation clock like the scenario engine's.
	rng   *rand.Rand
	t     *tracer
	joins int
}

func (r *vrun) connect(name string, behavior string, pos world.BlockPos) {
	r.sys.Cluster.ConnectAt(name, r.t.behavior(workload.ForName(behavior)), pos)
	r.joins++
}

// fleet is the sharded-stress shape plus the paper's construct load.
var fleet = &virtualWorkload{
	name:      "fleet",
	warmup:    25 * time.Second,
	perSecond: 11500 * time.Millisecond,
	config: func(seed int64) core.Config {
		return core.Config{
			Seed:         seed,
			WorldType:    "flat",
			Profile:      mve.ProfileServo,
			ServerlessSC: true,
			ServerlessRS: true,
			StorageTier:  blob.TierPremium,
			Shards:       4,
			Workers:      workers,
		}
	},
	systems: 1,
	populate: func(r *vrun) {
		// 100 offloaded 250-block constructs on a grid near spawn, laid
		// out like the scenario engine's construct placement.
		const constructs, blocks = 100, 250
		w, h := sc.BuildSized(blocks).Size()
		pitchX, pitchZ := max(15, w+3), max(15, h+3)
		perRow := max(1, 210/pitchX)
		for i := 0; i < constructs; i++ {
			pos := world.BlockPos{X: (i%perRow)*pitchX - 105, Y: 5, Z: -105 + (i/perRow)*pitchZ}
			r.sys.Cluster.SpawnConstruct(sc.BuildSized(blocks), pos)
		}
		r.sys.Cluster.Start()
		// 1000 bots join over 20 s, spread over the shards' home tiles,
		// with behaviour mix A:R:S3 = 5:3:2 exactly; the seed shuffles
		// which bot gets which.
		const bots, ramp = 1000, 20 * time.Second
		behaviors := make([]string, 0, bots)
		for _, mix := range []struct {
			name string
			n    int
		}{{"A", 500}, {"R", 300}, {"S3", 200}} {
			for k := 0; k < mix.n; k++ {
				behaviors = append(behaviors, mix.name)
			}
		}
		r.rng.Shuffle(bots, func(i, j int) { behaviors[i], behaviors[j] = behaviors[j], behaviors[i] })
		for i := 0; i < bots; i++ {
			i := i
			at := time.Duration(float64(ramp) * float64(i) / bots)
			r.loop.At(at, func() {
				r.connect(fmt.Sprintf("bot-%d", i), behaviors[i], r.sys.Cluster.Home(i%4))
			})
		}
	},
	gate: func(r *vrun, res *result, win counters) {
		all := snapshot(r.sys)
		res.check(r.joins == 1000, "fleet: %d of 1000 bots joined", r.joins)
		res.check(r.sys.Cluster.PlayerCount() == r.joins, "fleet: %d players lost", r.joins-r.sys.Cluster.PlayerCount())
		res.check(all.handoffs >= 1, "fleet: no handoff")
		res.check(all.storeFaults == 0, "fleet: %d storage faults", all.storeFaults)
		res.check(all.decodeFailures == 0, "fleet: %d rstore decode failures", all.decodeFailures)
	},
}

// chunkStorm is the gen-storm shape: a cold default world under walkers
// and four flash crowds.
var chunkStorm = &virtualWorkload{
	name:      "chunk-storm",
	warmup:    15 * time.Second,
	perSecond: 11 * time.Second,
	// The crowds land at 30 s: measure at least until 45 s.
	minWindow: 30 * time.Second,
	config: func(seed int64) core.Config {
		return core.Config{
			Seed:          seed,
			WorldType:     "default",
			ViewDistance:  64,
			Profile:       mve.ProfileServo,
			ServerlessTG:  true,
			ServerlessRS:  true,
			StorageTier:   blob.TierPremium,
			TGMaxInflight: 64,
			Shards:        4,
			Workers:       workers,
			Topology:      world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 4},
		}
	},
	systems: 2,
	populate: func(r *vrun) {
		cl := r.sys.Cluster
		cl.Start()
		tiles := []world.TileID{{X: 0, Z: 0}, {X: 1, Z: 0}, {X: 0, Z: 1}, {X: 1, Z: 1}}
		// One bounded walker per tile from the start.
		r.loop.At(0, func() {
			for i, tile := range tiles {
				r.connect(fmt.Sprintf("walker-%d", i), "A", cl.TileCenter(tile))
			}
		})
		// At 30 s, a 24-player S8 crowd lands on each tile.
		r.loop.At(30*time.Second, func() {
			for i, tile := range tiles {
				for k := 0; k < 24; k++ {
					r.connect(fmt.Sprintf("crowd-%d-%d", i, k), "S8", cl.TileCenter(tile))
				}
			}
		})
	},
	gate: func(r *vrun, res *result, win counters) {
		all := snapshot(r.sys)
		res.check(r.joins == 100 && r.sys.Cluster.PlayerCount() == r.joins,
			"chunk-storm: %d joined, %d connected", r.joins, r.sys.Cluster.PlayerCount())
		res.check(all.tgFail == 0, "chunk-storm: %d tgen failures", all.tgFail)
		res.check(all.tgDecode == 0, "chunk-storm: %d tgen decode errors", all.tgDecode)
		res.check(all.badRequests == 0, "chunk-storm: %d tgen bad requests", all.badRequests)
		res.check(win.deduped > 0, "chunk-storm: no generation was deduplicated")
		res.check(win.applied > 0, "chunk-storm: no chunk applied")
	},
}

// build assembles, populates and warms one system; t (may be nil) traces
// it.
func (w *virtualWorkload) build(seed int64, t *tracer) *vrun {
	loop := sim.NewLoop(seed)
	cfg := w.config(seed)
	if t != nil {
		cfg.WrapStore = t.wrapStore
	}
	r := &vrun{loop: loop, sys: core.New(loop, cfg), rng: rand.New(rand.NewSource(seed)), t: t}
	w.populate(r)
	loop.RunUntil(w.warmup)
	return r
}

// vwindow is what one measured window recorded.
type vwindow struct {
	wall       time.Duration
	steps      []float64 // host ms per tick interval, one per slice
	botSeconds float64
	peakHeapMB float64
	workSpan   float64
	delta      counters
	host       hostStats
	// vstats are the window's virtual statistics, which tracing must not
	// change.
	vstats vstats
	ticks  dist // modelled tick durations, virtual ms
	from   time.Duration
}

// vstats are the virtual statistics compared between traced and untraced
// runs of one seed.
type vstats struct {
	ticks, applied, handoffs, tgInv int64
	tickP99                         time.Duration
}

// measure advances the system through the measured window one slice at
// a time, timing each slice on the host. t (may be nil) traces the
// window.
func (r *vrun) measure(d time.Duration, t *tracer) *vwindow {
	w := &vwindow{from: r.loop.Now()}
	resetSamples(r.sys)
	base := snapshot(r.sys)
	r.loop.ResetBatchStats()
	runtime.GC()
	w.host.begin()
	t.begin()
	end := r.loop.Now() + d
	start := time.Now()
	for now := r.loop.Now(); now < end; now += slice {
		players := r.sys.Cluster.PlayerCount()
		t0 := time.Now()
		r.loop.RunUntil(now + slice)
		w.steps = append(w.steps, float64(time.Since(t0))/1e6/float64(slice/interval))
		w.botSeconds += float64(players) * slice.Seconds()
		w.peakHeapMB = max(w.peakHeapMB, liveHeapMB())
	}
	w.wall = time.Since(start)
	t.end()
	w.host.stop()
	// The live heap after a full collection at the end of the window:
	// exact, where the samples above depend on when cycles happened.
	runtime.GC()
	w.peakHeapMB = max(w.peakHeapMB, liveHeapMB())
	w.workSpan = r.loop.BatchStats().Speedup()
	w.delta = snapshot(r.sys).minus(base)
	tk := ticks(r.sys)
	w.ticks = make(dist, 0, tk.Len())
	for _, v := range tk.Values() {
		w.ticks = append(w.ticks, vms(v))
	}
	w.ticks = sorted(w.ticks)
	w.vstats = vstats{
		ticks: w.delta.ticks, applied: w.delta.applied, handoffs: w.delta.handoffs,
		tgInv: w.delta.tgInv, tickP99: tk.Percentile(99),
	}
	return w
}

func (r *vrun) stop() { r.sys.Cluster.Stop() }

// overBudget is the share of modelled ticks (virtual ms) over the QoS
// budget.
func overBudget(ticks dist) float64 {
	n := 0
	for _, v := range ticks {
		if v > vms(qosBudget) {
			n++
		}
	}
	return float64(n) / float64(max(len(ticks), 1))
}

// account folds the window's operations into res: every join, FaaS
// invocation, storage operation and applied chunk is attempted, and
// every lost session, fault and decode error is a failure.
func (w *vwindow) account(r *vrun, res *result) {
	d := w.delta
	res.count("sessions", int64(r.joins), int64(r.joins-r.sys.Cluster.PlayerCount()))
	res.count("FaaS invocations", d.tgInv+d.scInv, d.faasFaults+d.tgFail)
	res.count("storage operations", d.reads+d.writes, d.storeFaults)
	res.count("chunk decodes", d.applied, d.tgDecode+d.decodeFailures+d.badRequests)
}

// runVirtual runs one virtual workload as o asks.
func runVirtual(w *virtualWorkload, o opts) *result {
	res := &result{}
	window := max(time.Duration(o.seconds)*w.perSecond, w.minWindow)
	if !o.trace {
		var setups, heaps, steps, tickVMS []float64
		var botSeconds float64
		var wall time.Duration
		for k := 0; k < w.systems; k++ {
			// Each system is an independent realization of the workload
			// with a seed derived from the run's.
			seed := o.seed + int64(k)<<32
			rounds := 1
			if k == 0 {
				rounds = setupRounds
			}
			var r *vrun
			for i := 0; i < rounds; i++ {
				if r != nil {
					r.stop()
					r = nil
				}
				runtime.GC()
				t0 := time.Now()
				r = w.build(seed, nil)
				setups = append(setups, time.Since(t0).Seconds())
			}
			win := r.measure(window, nil)
			w.gate(r, res, win.delta)
			win.account(r, res)
			r.stop()
			steps = append(steps, win.steps...)
			tickVMS = append(tickVMS, win.ticks...)
			botSeconds += win.botSeconds
			wall += win.wall
			heaps = append(heaps, win.peakHeapMB)
		}
		sortedSteps, sortedTicks := sorted(steps), sorted(tickVMS)
		throughput := botSeconds / wall.Seconds()
		res.e2e = []metric{
			{"throughput_per_s", throughput, "1/s"},
			{"latency_ms_p50", sortedSteps.pct(50), "ms"},
			{"latency_ms_p95", sortedSteps.pct(95), "ms"},
			{"setup_s", median(setups), "s"},
			{"peak_heap_mb", median(heaps), "MB"},
			{"tick_mean_vms", mean(tickVMS), "vms"},
		}
		res.printf("sim_bot_s_per_s %.1f bot-s/s (%.1f bot-s in %.3f s, %d system(s))", throughput, botSeconds, wall.Seconds(), w.systems)
		res.printf("%s", sortedSteps.describe("vtick_host_ms", "ms"))
		res.printf("setup_s %.4f s (median of %d: %v)", median(setups), len(setups), setups)
		res.printf("peak_heap_mb %.1f MB (median of %v)", median(heaps), heaps)
		res.printf("%s", sortedTicks.describe("tick_vms", "virtual ms"))
		res.printf("tick_mean_vms %.3f; tick_p99_vms %.3f; over_budget_frac %.5f",
			mean(tickVMS), sortedTicks.pct(99), overBudget(sortedTicks))
		res.printf("ops_failed_frac %.6f (%d of %d)", res.failedFrac(), res.failed, res.attempted)
		return res
	}

	// Traced: an untraced reference run, then the traced run of the same
	// seed; both must report identical virtual statistics.
	ref := w.build(o.seed, nil)
	refWin := ref.measure(window, nil)
	w.gate(ref, res, refWin.delta)
	ref.stop()
	ref = nil
	runtime.GC()

	t := newTracer(workers, 0, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	r := w.build(o.seed, t)
	win := r.measure(window, t)
	w.gate(r, res, win.delta)
	win.account(r, res)
	res.check(win.vstats == refWin.vstats, "tracing changed the run: traced %+v, untraced %+v", win.vstats, refWin.vstats)
	d := win.delta
	extra := []metric{
		{"cluster.handoffs", float64(d.handoffs), "count"},
		{"cluster.handoff_p99_vms", vms(r.sys.Cluster.HandoffLatency.Percentile(99)), "vms"},
		{"cluster.load_imbalance", loadImbalance(r.sys, win.from, r.loop.Now()), "x"},
		{"sim.work_span_x", win.workSpan, "x"},
		{"mve.tick_p99_vms", win.ticks.pct(99), "vms"},
		{"mve.over_budget_frac", overBudget(win.ticks), "fraction"},
		{"trace_overhead_x", win.wall.Seconds() / refWin.wall.Seconds(), "x"},
		{"netproto.chunk_bytes_mean", 0, "B"},
		{"tcp.update_gap_ms_p90", 0, "ms"},
	}
	res.layer = layerMetrics(r.sys, t, d, &win.host, win.wall, extra, res)
	res.layer = append(res.layer, metric{"ops_failed_frac", res.failedFrac(), "fraction"})
	r.stop()
	res.printf("traced window %.3f s, untraced %.3f s; virtual stats %+v", win.wall.Seconds(), refWin.wall.Seconds(), win.vstats)
	return res
}
