package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"servo/internal/blob"
	"servo/internal/cluster"
	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/servo/specexec"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// qosBudget is the paper's tick-duration QoS bound (1/R = 50 ms).
const qosBudget = 50 * time.Millisecond

// scSpacing is the construct grid pitch, matching the paper's §IV-B
// placement (constructs stay within loaded terrain for bounded players).
const scSpacing = 15

// stormEvictPeriod is how often a cold-start storm re-evicts warm pools.
const stormEvictPeriod = time.Second

// prewriteDrain is how long after the write phase stops the engine waits
// for in-flight cache flushes and store writes to land before restarting
// the world over the populated store.
const prewriteDrain = time.Minute

// ref is a session handle valid on either frontend: the single server or
// the sharded cluster.
type ref struct {
	p  *mve.Player
	cp *cluster.Player
}

// front routes session operations to the system under test.
type front struct{ sys *core.System }

func (f front) sharded() bool { return f.sys.Cluster != nil }

// placement says where a player joins: an exact block position, a
// specific tile's center, a shard's home tile, or world spawn.
type placement struct {
	shard int           // -1 = spawn (unless tile or pos is set)
	tile  *world.TileID // tile center placement, finer-grained than shard
	pos   *world.BlockPos
}

// atSpawn is the default placement.
var atSpawn = placement{shard: -1}

// connect joins a player at the placement (shard/tile placement needs a
// sharded system; explicit positions work everywhere).
func (f front) connect(name string, b mve.Behavior, pl placement) ref {
	if cl := f.sys.Cluster; cl != nil {
		if pl.pos != nil {
			return ref{cp: cl.ConnectAt(name, b, *pl.pos)}
		}
		if pl.tile != nil {
			return ref{cp: cl.ConnectAt(name, b, cl.TileCenter(*pl.tile))}
		}
		if pl.shard >= 0 {
			return ref{cp: cl.ConnectAt(name, b, cl.Home(pl.shard))}
		}
		return ref{cp: cl.Connect(name, b)}
	}
	if pl.pos != nil {
		return ref{p: f.sys.Shards[0].Server.ConnectAt(name, b, float64(pl.pos.X), float64(pl.pos.Z))}
	}
	return ref{p: f.sys.Shards[0].Server.Connect(name, b)}
}

// disconnect ends a session, reporting whether it was still live (a
// false return means the player had already vanished — the signal the
// players_lost audit counts).
func (f front) disconnect(r ref) bool {
	if r.cp != nil {
		return f.sys.Cluster.Disconnect(r.cp.ID)
	}
	return f.sys.Shards[0].Server.Disconnect(r.p.ID)
}

func (f front) count() int {
	if cl := f.sys.Cluster; cl != nil {
		return cl.PlayerCount()
	}
	return f.sys.Shards[0].Server.PlayerCount()
}

// newest returns the n most recently joined sessions.
func (f front) newest(n int) []ref {
	var all []ref
	if cl := f.sys.Cluster; cl != nil {
		for _, p := range cl.Players() {
			all = append(all, ref{cp: p})
		}
	} else {
		for _, p := range f.sys.Shards[0].Server.Players() {
			all = append(all, ref{p: p})
		}
	}
	if n > len(all) {
		n = len(all)
	}
	return all[len(all)-n:]
}

func (f front) start() {
	if cl := f.sys.Cluster; cl != nil {
		cl.Start()
		return
	}
	f.sys.Shards[0].Server.Start()
}

func (f front) stop() {
	if cl := f.sys.Cluster; cl != nil {
		cl.Stop()
		return
	}
	f.sys.Shards[0].Server.Stop()
}

// spawnConstruct activates a construct, routed by anchor region when
// sharded.
func (f front) spawnConstruct(c *sc.Construct, anchor world.BlockPos) {
	if cl := f.sys.Cluster; cl != nil {
		cl.SpawnConstruct(c, anchor)
		return
	}
	f.sys.Shards[0].Server.SpawnConstruct(c, anchor)
}

// Runner executes one scenario on a fresh virtual-clock system.
type Runner struct {
	spec *Spec
	log  io.Writer

	loop     *sim.Loop
	sys      *core.System
	front    front
	flip     *flipStore
	localAlt *blob.Store // backing store of the flip's "local" side
	// t0 is the virtual time the measured scenario starts: 0, or the end
	// of the prewrite phase (write + drain).
	t0 time.Duration
	// hrng drives harness-level decisions (behavior mixes, churn session
	// lengths), seeded from the spec so they replay deterministically and
	// stay independent of the simulation clock's random stream.
	hrng *rand.Rand
	// viewSeries samples the system-wide minimum view margin once per
	// second, feeding windowed view_margin assertions (nil unless one
	// exists: the scan over every player's view range is not free).
	viewSeries *metrics.TimeSeries

	scZ      int // next free Z band for construct placement
	crowdSeq int // flash-crowd naming sequence
	peak     int // peak concurrent players

	// joins and leaves audit every measured session: joins counts
	// r.connect calls, leaves counts disconnects that found a live
	// session. joins - leaves - final count = players lost by the system
	// (a session that vanished without the harness disconnecting it),
	// the zero-loss invariant scale and failover scenarios assert on.
	joins, leaves int

	// botSeconds integrates concurrency over the measured window (one
	// virtual-second samples), and wall is the wall-clock time the window
	// took to simulate: together the engine's throughput, bots simulated
	// per wall-second. The sampler only reads the session count, so the
	// virtual run stays deterministic.
	botSeconds float64
	wall       time.Duration

	// Chaos window generations, keyed by target function name ("" = the
	// whole platform / store): when windows of the same target overlap,
	// the newest wins and an older window's end must not clear it.
	faasChaosGen    map[string]int
	storageChaosGen int

	base baseline
}

// Run validates spec (normalising defaults), executes it to completion on
// the virtual clock, and returns the report. log, if non-nil, receives
// progress lines (they are not part of the deterministic report).
func Run(spec *Spec, log io.Writer) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		spec:         spec,
		log:          log,
		hrng:         rand.New(rand.NewSource(spec.Seed ^ 0x5eed0c)),
		faasChaosGen: make(map[string]int),
	}
	r.build()
	r.schedule()
	return r.run(), nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.log != nil {
		fmt.Fprintf(r.log, "[%10s] %s\n", r.loop.Now(), fmt.Sprintf(format, args...))
	}
}

// at schedules fn at d after the measured scenario's start (offset by the
// prewrite phase when one ran).
func (r *Runner) at(d time.Duration, fn func()) { r.loop.At(r.t0+d, fn) }

func profileFor(name string) mve.Profile {
	switch name {
	case "opencraft":
		return mve.ProfileOpencraft
	case "minecraft":
		return mve.ProfileMinecraft
	}
	return mve.ProfileServo
}

func tierFor(name string) blob.Tier {
	switch name {
	case "local":
		return blob.TierLocal
	case "standard":
		return blob.TierStandard
	}
	return blob.TierPremium
}

func hasFlip(spec *Spec) bool {
	for _, e := range spec.Events {
		if e.Kind == EvFlipStorage {
			return true
		}
	}
	return false
}

// build assembles the system under test from the spec.
func (r *Runner) build() {
	spec := r.spec
	r.loop = sim.NewLoop(spec.Seed)
	r.scZ = -105 // construct grid bands start at the spawn region's edge
	cfg := core.Config{
		Seed:         spec.Seed,
		WorldType:    spec.World.Type,
		ViewDistance: spec.World.ViewDistance,
		Profile:      profileFor(spec.World.Profile),
		ServerlessSC: spec.Backend.Constructs,
		ServerlessTG: spec.Backend.Terrain,
		ServerlessRS: spec.Backend.Storage,
		LocalStore:   spec.Backend.LocalStore,
		StorageTier:  tierFor(spec.Backend.StorageTier),
		Shards:       spec.Shards,
		Workers:      spec.Workers,
		PhaseLock:    spec.PhaseLock,
	}
	cfg.TGMaxInflight = spec.Backend.TGMaxInflight
	if gd := spec.Backend.GenDedup; gd != nil && !*gd {
		cfg.DisableGenDedup = true
	}
	if tp := spec.Topology; tp != nil {
		built, err := (world.TopologySpec{
			Kind:       tp.Kind,
			TileChunks: tp.TileChunks,
			TilesX:     tp.TilesX,
			TilesZ:     tp.TilesZ,
		}).Build()
		if err == nil { // Validate has already vetted the geometry
			cfg.Topology = built
		}
	}
	if rb := spec.Rebalance; rb != nil {
		cfg.Rebalance = true
		cfg.RebalanceThreshold = rb.Threshold
		cfg.RebalanceInterval = rb.Interval.D()
	}
	if a := spec.Autoscale; a != nil {
		cfg.Autoscale = cluster.AutoscaleConfig{
			Enabled:       true,
			MinShards:     a.MinShards,
			MaxShards:     a.MaxShards,
			Interval:      a.Interval.D(),
			HighUtil:      a.HighUtil,
			LowUtil:       a.LowUtil,
			ShardCapacity: a.ShardCapacity,
			UpCooldown:    a.UpCooldown.D(),
			DownCooldown:  a.DownCooldown.D(),
			Horizon:       a.Horizon.D(),
			MaxMoves:      a.MaxMoves,
			MaxFailures:   a.MaxFailures,
			FailureWindow: a.FailureWindow.D(),
			Probation:     a.Probation.D(),
		}
	}
	if v := spec.Visibility; v != nil {
		cfg.Visibility = true
		cfg.VisibilityMargin = v.Margin
		cfg.VisibilityInterval = v.Interval.D()
	}
	cfg.CheckpointInterval = spec.Checkpoint.D()
	cfg.LogRetention = spec.LogRetention
	if se := spec.Backend.SpecExec; se != nil {
		sx := specexec.DefaultConfig()
		if se.TickLead != nil {
			sx.TickLead = *se.TickLead
		}
		if se.Steps != nil {
			sx.StepsPerInvocation = *se.Steps
		}
		if se.DetectLoops != nil {
			sx.DetectLoops = *se.DetectLoops
		}
		cfg.SpecExec = sx
	}
	if spec.Prewrite != nil {
		cfg = r.runPrewrite(cfg)
	}
	if hasFlip(spec) {
		r.localAlt = blob.NewStore(r.loop, blob.TierLocal)
		local := core.NewBlobChunkStore(r.localAlt)
		cfg.WrapStore = func(s mve.ChunkStore) mve.ChunkStore {
			r.flip = &flipStore{serverless: s, local: local}
			return r.flip
		}
	}
	r.sys = core.New(r.loop, cfg)
	r.front = front{sys: r.sys}
	for _, g := range spec.Constructs {
		r.placeConstructs(g.Count, g.Blocks)
	}
	r.front.start()
	for _, a := range spec.Assertions {
		if a.Metric == "view_margin" && a.Windowed() {
			r.viewSeries = &metrics.TimeSeries{}
			r.loop.After(time.Second, r.sampleViewMargin)
			break
		}
	}
}

// sampleViewMargin records the distance from the closest player to the
// nearest missing terrain (minimum across shards), once per second: the
// series behind windowed view_margin assertions — the Fig. 10 QoS
// signal, observable over time instead of only at the end of the run.
func (r *Runner) sampleViewMargin() {
	margin := -1
	for _, sh := range r.sys.Shards {
		if vm := sh.Server.MinViewMargin(); margin < 0 || vm < margin {
			margin = vm
		}
	}
	r.viewSeries.Add(r.loop.Now(), time.Duration(margin))
	if r.loop.Now() < r.t0+r.spec.Duration.D() {
		r.loop.After(time.Second, r.sampleViewMargin)
	}
}

// sampleBotSeconds accumulates one virtual second of every live session
// into the bot-seconds integral, once per second over the measured
// window.
func (r *Runner) sampleBotSeconds() {
	r.botSeconds += float64(r.front.count())
	if r.loop.Now() < r.t0+r.spec.Duration.D() {
		r.loop.After(time.Second, r.sampleBotSeconds)
	}
}

// windowViewMargin returns the minimum sampled view margin inside the
// window [from, to] (the QoS floor over the window), or -1 when nothing
// was sampled there.
func (r *Runner) windowViewMargin(from, to time.Duration) float64 {
	min := -1.0
	for _, v := range r.viewSeries.ValuesBetween(r.t0+from, r.t0+to) {
		if min < 0 || float64(v) < min {
			min = float64(v)
		}
	}
	return min
}

// runPrewrite executes the write phase: a throwaway system over a fresh
// store runs the prewrite fleet, stops, flushes its caches, and drains
// in-flight writes. The returned config carries the populated store into
// the measured system, and r.t0 shifts the whole measured schedule past
// the phase — the world-restart hook of the Fig. 13 read phase.
func (r *Runner) runPrewrite(cfg core.Config) core.Config {
	pw := r.spec.Prewrite
	sys := core.New(r.loop, cfg)
	f := front{sys: sys}
	var refs []ref
	for gi := range pw.Fleet {
		g := pw.Fleet[gi]
		gi := gi
		var members []ref
		r.loop.At(g.JoinAt.D(), func() {
			for i := 0; i < g.Count; i++ {
				m := f.connect(fmt.Sprintf("pre%d-%d", gi, i), workload.ForName(g.Behavior), fleetPlacement(g))
				members = append(members, m)
				refs = append(refs, m)
			}
			r.logf("prewrite fleet[%d]: %d %q players joined", gi, g.Count, g.Behavior)
		})
		if g.LeaveAt != 0 {
			r.loop.At(g.LeaveAt.D(), func() {
				for _, m := range members {
					f.disconnect(m)
				}
			})
		}
	}
	f.start()
	r.loop.RunUntil(pw.Duration.D())
	for _, m := range refs {
		f.disconnect(m) // persist player records
	}
	f.stop()
	for _, sh := range sys.Shards {
		if sh.Cache != nil {
			sh.Cache.Flush()
			// The throwaway system is about to be discarded; without this
			// its flusher closures would pin it in memory (and tick) for
			// the whole measured run.
			sh.Cache.StopFlusher()
		}
	}
	r.loop.RunUntil(pw.Duration.D() + prewriteDrain)
	r.t0 = pw.Duration.D() + prewriteDrain
	r.logf("prewrite complete: %d objects persisted; restarting world", sys.Remote.Len())
	cfg.Remote = sys.Remote
	return cfg
}

// fleetPlacement returns a fleet group's join placement.
func fleetPlacement(g FleetGroup) placement {
	if g.Pos != nil {
		return placement{shard: -1, pos: &world.BlockPos{X: g.Pos[0], Z: g.Pos[1]}}
	}
	if g.Tile != nil {
		return placement{shard: -1, tile: &world.TileID{X: g.Tile[0], Z: g.Tile[1]}}
	}
	if g.Shard == nil {
		return atSpawn
	}
	return placement{shard: *g.Shard}
}

// placeConstructs activates count constructs of the given size on a grid
// near spawn. The pitch adapts to the construct footprint and every wave
// gets a fresh Z band, so construct storms never overlap earlier
// placements. On a sharded system each construct lands on the shard
// owning its anchor.
func (r *Runner) placeConstructs(count, blocks int) {
	w, h := sc.BuildSized(blocks).Size()
	pitchX, pitchZ := scSpacing, scSpacing
	if w+3 > pitchX {
		pitchX = w + 3
	}
	if h+3 > pitchZ {
		pitchZ = h + 3
	}
	perRow := 210 / pitchX
	if perRow < 1 {
		perRow = 1
	}
	for i := 0; i < count; i++ {
		x := (i%perRow)*pitchX - 105
		z := r.scZ + (i/perRow)*pitchZ
		r.front.spawnConstruct(sc.BuildSized(blocks), world.BlockPos{X: x, Y: 5, Z: z})
	}
	r.scZ += (count + perRow - 1) / perRow * pitchZ
}

// connect joins one player at the placement and tracks the concurrency
// peak and the join audit.
func (r *Runner) connect(name, behavior string, pl placement) ref {
	m := r.front.connect(name, workload.ForName(behavior), pl)
	r.joins++
	if n := r.front.count(); n > r.peak {
		r.peak = n
	}
	return m
}

// disconnect ends one measured session, counting confirmed leaves for
// the players_lost audit.
func (r *Runner) disconnect(m ref) {
	if r.front.disconnect(m) {
		r.leaves++
	}
}

// schedule queues every fleet join/leave, stress bot, and timed event on
// the virtual clock.
func (r *Runner) schedule() {
	spec := r.spec
	for gi := range spec.Fleet {
		g := spec.Fleet[gi]
		gi := gi
		var members []ref
		r.at(g.JoinAt.D(), func() {
			for i := 0; i < g.Count; i++ {
				members = append(members, r.connect(fmt.Sprintf("fleet%d-%d", gi, i), g.Behavior, fleetPlacement(g)))
			}
			r.logf("fleet[%d]: %d %q players joined", gi, g.Count, g.Behavior)
		})
		if g.LeaveAt != 0 {
			r.at(g.LeaveAt.D(), func() {
				for _, m := range members {
					r.disconnect(m)
				}
				r.logf("fleet[%d]: %d players left", gi, len(members))
			})
		}
	}
	if st := spec.Stress; st != nil {
		for i := 0; i < st.Bots; i++ {
			i := i
			joinAt := time.Duration(float64(st.Ramp.D()) * float64(i) / float64(st.Bots))
			r.at(joinAt, func() { r.runBot(i, st) })
		}
	}
	for i := range spec.Events {
		e := spec.Events[i]
		r.at(e.At.D(), func() { r.fire(e) })
	}
}

// pickBehavior draws a behavior name from the stress weights.
func (r *Runner) pickBehavior(st *StressSpec) string {
	names := make([]string, 0, len(st.Behaviors))
	for n := range st.Behaviors {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0.0
	for _, n := range names {
		total += st.Behaviors[n]
	}
	roll := r.hrng.Float64() * total
	for _, n := range names {
		roll -= st.Behaviors[n]
		if roll < 0 {
			return n
		}
	}
	return names[len(names)-1]
}

// botPlacement returns stress bot i's join placement.
func (r *Runner) botPlacement(i int, st *StressSpec) placement {
	if st.Placement != "spread" {
		return atSpawn
	}
	return placement{shard: i % r.spec.Shards}
}

// runBot connects one stress bot (stable identity per index, so rejoins
// resume persisted player data) and, under churn, schedules its session
// end and eventual rejoin.
func (r *Runner) runBot(i int, st *StressSpec) {
	m := r.connect(fmt.Sprintf("bot-%d", i), r.pickBehavior(st), r.botPlacement(i, st))
	if st.Churn == nil {
		return
	}
	session := time.Duration(r.hrng.ExpFloat64() * float64(st.Churn.MeanSession.D()))
	r.loop.After(session, func() {
		r.disconnect(m)
		pause := time.Duration(r.hrng.ExpFloat64() * float64(st.Churn.MeanPause.D()))
		r.loop.After(pause, func() { r.runBot(i, st) })
	})
}

// fire executes one timed event. Validation has already checked that the
// targeted component exists.
func (r *Runner) fire(e Event) {
	switch e.Kind {
	case EvFlashCrowd:
		seq := r.crowdSeq
		r.crowdSeq++
		var tile *world.TileID
		if e.Tile != nil {
			tile = &world.TileID{X: e.Tile[0], Z: e.Tile[1]}
		}
		for i := 0; i < e.Count; i++ {
			r.connect(fmt.Sprintf("crowd%d-%d", seq, i), e.Behavior, placement{shard: -1, tile: tile})
		}
		if tile != nil {
			r.logf("flash crowd: %d %q players joined at %v", e.Count, e.Behavior, *tile)
		} else {
			r.logf("flash crowd: %d %q players joined", e.Count, e.Behavior)
		}
	case EvDisconnect:
		victims := r.front.newest(e.Count)
		for _, m := range victims {
			r.disconnect(m)
		}
		r.logf("disconnect: %d players left", len(victims))
	case EvSpawnSCs:
		r.placeConstructs(e.Count, e.Blocks)
		r.logf("construct storm: %d x %d-block constructs activated", e.Count, e.Blocks)
	case EvFaasChaos:
		r.faasChaosGen[e.Function]++
		gen := r.faasChaosGen[e.Function]
		ch := &faas.Chaos{
			FailureRate:   e.FailureRate,
			LatencyFactor: e.LatencyFactor,
			ForceCold:     e.ForceCold,
		}
		setChaos := func(c *faas.Chaos) {
			if e.Function != "" {
				r.sys.Platform.SetFunctionChaos(e.Function, c)
			} else {
				r.sys.Platform.SetChaos(c)
			}
		}
		setChaos(ch)
		r.loop.After(e.Duration.D(), func() {
			if r.faasChaosGen[e.Function] == gen { // not superseded by a newer window
				setChaos(nil)
				r.logf("faas chaos window ended (target %q)", e.Function)
			}
		})
		target := "platform"
		if e.Function != "" {
			target = e.Function
		}
		r.logf("faas chaos on %s: failure_rate=%g latency_factor=%g for %s", target, e.FailureRate, e.LatencyFactor, e.Duration)
	case EvStorageChaos:
		r.storageChaosGen++
		gen := r.storageChaosGen
		ch := &blob.Chaos{
			ReadErrorRate:  e.ErrorRate,
			WriteErrorRate: e.ErrorRate,
			LatencyFactor:  e.LatencyFactor,
		}
		// The brownout hits every store the server may be talking to,
		// including the flip's local side.
		r.sys.Remote.SetChaos(ch)
		if r.localAlt != nil {
			r.localAlt.SetChaos(ch)
		}
		r.loop.After(e.Duration.D(), func() {
			if r.storageChaosGen == gen { // not superseded by a newer window
				r.sys.Remote.SetChaos(nil)
				if r.localAlt != nil {
					r.localAlt.SetChaos(nil)
				}
				r.logf("storage chaos window ended")
			}
		})
		r.logf("storage brownout: error_rate=%g latency_factor=%g for %s", e.ErrorRate, e.LatencyFactor, e.Duration)
	case EvColdStartStorm:
		end := r.loop.Now() + e.Duration.D()
		var evict func()
		evict = func() {
			n := r.sys.Platform.EvictAllWarm()
			r.logf("cold-start storm: evicted %d warm instances", n)
			if r.loop.Now()+stormEvictPeriod <= end {
				r.loop.After(stormEvictPeriod, evict)
			}
		}
		evict()
	case EvFlipStorage:
		r.flip.useLocal = e.Target == "local"
		r.logf("storage backend flipped to %s", e.Target)
	case EvShardFail:
		shard := *e.Shard
		if r.sys.FailShard(shard) {
			r.logf("shard %d killed: tiles rerouted, players re-admitting (epoch %d)", shard, r.sys.Cluster.Epoch())
		} else {
			r.logf("shard %d kill refused (already dead, or last alive shard)", shard)
		}
		if e.RecoverAt != 0 {
			r.at(e.RecoverAt.D(), func() {
				if r.sys.RecoverShard(shard) {
					r.logf("shard %d recovering: rebuilding over the persisted world", shard)
				}
			})
		}
	}
}

// baseline snapshots every delta-reported counter at the end of warm-up.
// On a sharded system the scalar fields hold sums across shards.
type baseline struct {
	actions, chunksApplied, chunksSent, resumed int64
	chats                                       int64
	discards                                    int64
	scInv, scCold, scFaults                     int64
	tgInv, tgCold, tgFaults                     int64
	tgBackendFailures, genDeduped               int
	cacheHits, cacheMisses, prefetch            int64
	reads, writes, storeFaults                  int64
	handoffs                                    int64
	rebalances, tilesMoved                      int64
	failovers, playersFailedOver                int64
	ghostUpdates, visibilityGaps                int64
	scaleUps, scaleDowns                        int64
	quarantines, tilesDrained                   int64
	handoffsIn, handoffsOut                     []int64
}

func (r *Runner) snapshotBaseline() {
	b := &r.base
	for _, sh := range r.sys.Shards {
		srv := sh.Server
		b.actions += srv.ActionCount.Value()
		b.chunksApplied += srv.ChunksApplied.Value()
		b.chunksSent += srv.ChunksSent.Value()
		b.resumed += srv.ConstructsResumed.Value()
		b.chats += srv.ChatsDelivered.Value()
		if m := sh.SpecExec; m != nil {
			b.discards += m.Discards.Value()
		}
		if tb := sh.TGBackend; tb != nil {
			b.tgBackendFailures += tb.Failures
			b.genDeduped += tb.GenDeduped
		}
		if c := sh.Cache; c != nil {
			b.cacheHits += c.Hits.Value()
			b.cacheMisses += c.Misses.Value()
			b.prefetch += c.PrefetchIssued.Value()
		}
	}
	if f := r.sys.SCFn; f != nil {
		b.scInv = int64(f.Invocations.Count())
		b.scCold = f.ColdStarts.Value()
		b.scFaults = f.FaultsInjected.Value()
	}
	if f := r.sys.TGFn; f != nil {
		b.tgInv = int64(f.Invocations.Count())
		b.tgCold = f.ColdStarts.Value()
		b.tgFaults = f.FaultsInjected.Value()
	}
	if st := r.sys.Remote; st != nil {
		b.reads = st.Reads.Value()
		b.writes = st.Writes.Value()
		b.storeFaults = st.FaultsInjected.Value()
	}
	if st := r.localAlt; st != nil {
		b.reads += st.Reads.Value()
		b.writes += st.Writes.Value()
		b.storeFaults += st.FaultsInjected.Value()
	}
	if cl := r.sys.Cluster; cl != nil {
		b.handoffs = cl.Handoffs.Value()
		b.rebalances = cl.Rebalances.Value()
		b.tilesMoved = cl.TilesMoved.Value()
		b.failovers = cl.Failovers.Value()
		b.playersFailedOver = cl.PlayersFailedOver.Value()
		b.ghostUpdates = cl.GhostUpdates.Value()
		b.visibilityGaps = cl.VisibilityGaps.Value()
		b.scaleUps = cl.ScaleUps.Value()
		b.scaleDowns = cl.ScaleDowns.Value()
		b.quarantines = cl.Quarantines.Value()
		b.tilesDrained = cl.TilesDrained.Value()
		// Membership may have grown past the boot set by now (autoscale
		// fires during warm-up too); the baseline covers whatever exists.
		for i := range r.sys.Shards {
			b.handoffsIn = append(b.handoffsIn, cl.HandoffsIn[i].Value())
			b.handoffsOut = append(b.handoffsOut, cl.HandoffsOut[i].Value())
		}
	}
}

// run drives the scenario: warm up, reset measurement state, run the
// measured window, then collect the report.
func (r *Runner) run() *Report {
	spec := r.spec
	r.loop.RunUntil(r.t0 + spec.Warmup.D())
	r.snapshotBaseline()
	measured := int((spec.Duration - spec.Warmup).D() / r.sys.Shards[0].Server.Config().TickInterval)
	for _, sh := range r.sys.Shards {
		sh.Server.TickDurations = metrics.NewSample(measured)
		if m := sh.SpecExec; m != nil {
			m.Efficiency = nil
		}
	}
	if st := r.sys.Remote; st != nil {
		// Like the tick sample, storage latency percentiles are measured
		// over the post-warm-up window only (boot reads excluded).
		st.ReadLatency = metrics.Sample{}
	}
	if cl := r.sys.Cluster; cl != nil {
		cl.HandoffLatency = metrics.NewSample(4096)
	}
	r.logf("warm-up complete; measuring")
	r.loop.After(time.Second, r.sampleBotSeconds)
	wallStart := time.Now()
	r.loop.RunUntil(r.t0 + spec.Duration.D())
	r.wall = time.Since(wallStart)
	r.front.stop()
	ticks := 0
	for _, sh := range r.sys.Shards {
		ticks += sh.Server.TickDurations.Len()
	}
	r.logf("run complete: %d ticks measured across %d shard(s)", ticks, len(r.sys.Shards))
	return r.collect()
}

// windowTicks gathers per-tick durations from every shard inside the
// window [from, to] (relative to the measured scenario's start).
func (r *Runner) windowTicks(from, to time.Duration) *metrics.Sample {
	s := &metrics.Sample{}
	for _, sh := range r.sys.Shards {
		s.AddAll(sh.Server.TickSeries.ValuesBetween(r.t0+from, r.t0+to))
	}
	return s
}

// windowImbalance recomputes load_imbalance (max/mean of per-shard mean
// tick duration) over the window [from, to]: the assertion hook showing
// imbalance spiking after a hotspot event and decreasing once the
// controller rebalanced. Shards with no ticks in the window (e.g. dead
// during a failover) are excluded.
func (r *Runner) windowImbalance(from, to time.Duration) float64 {
	var loads []float64
	for _, sh := range r.sys.Shards {
		s := &metrics.Sample{}
		s.AddAll(sh.Server.TickSeries.ValuesBetween(r.t0+from, r.t0+to))
		if s.Len() == 0 {
			continue
		}
		loads = append(loads, float64(s.Mean()))
	}
	return metrics.ImbalanceRatio(loads)
}

// tickMetric computes one tick metric over a sample (the shared math
// behind end-of-run values and windowed assertions).
func tickMetric(name string, ticks *metrics.Sample) float64 {
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	total := ticks.Len()
	switch name {
	case "ticks_total":
		return float64(total)
	case "ticks_over_budget":
		return float64(ticks.CountAbove(qosBudget))
	case "over_budget_frac":
		if total == 0 {
			return 0
		}
		return float64(ticks.CountAbove(qosBudget)) / float64(total)
	case "tick_p50_ms":
		return msOf(ticks.Percentile(50))
	case "tick_p90_ms":
		return msOf(ticks.Percentile(90))
	case "tick_p95_ms":
		return msOf(ticks.Percentile(95))
	case "tick_p99_ms":
		return msOf(ticks.Percentile(99))
	case "tick_max_ms":
		return msOf(ticks.Max())
	case "tick_mean_ms":
		return msOf(ticks.Mean())
	}
	return 0
}

// collect computes the metric map, evaluates assertions, and assembles the
// deterministic report.
func (r *Runner) collect() *Report {
	spec := r.spec
	b := &r.base
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Pool every shard's post-warm-up ticks for the cluster-wide tick
	// statistics (a single-shard system pools trivially).
	ticks := &metrics.Sample{}
	for _, sh := range r.sys.Shards {
		ticks.AddAll(sh.Server.TickDurations.Values())
	}

	vals := make(map[string]float64)
	for _, name := range []string{
		"ticks_total", "ticks_over_budget", "over_budget_frac",
		"tick_p50_ms", "tick_p90_ms", "tick_p95_ms", "tick_p99_ms",
		"tick_max_ms", "tick_mean_ms",
	} {
		vals[name] = tickMetric(name, ticks)
	}
	vals["players_final"] = float64(r.front.count())
	vals["players_peak"] = float64(r.peak)
	// The zero-loss audit: every join the harness made, minus confirmed
	// leaves, minus whoever is still connected. Positive means the system
	// dropped sessions on the floor (e.g. during a drain or failover);
	// a transient negative can occur when a disconnect raced an in-flight
	// handoff that the run ended before settling.
	vals["players_lost"] = float64(r.joins-r.leaves) - vals["players_final"]

	var actions, chunksApplied, chunksSent, resumed, discards, chats int64
	var cacheHits, cacheMisses, prefetch int64
	var tgBackendFailures, genDeduped, constructs int
	var efficiency []float64
	viewMargin := -1
	for _, sh := range r.sys.Shards {
		srv := sh.Server
		actions += srv.ActionCount.Value()
		chunksApplied += srv.ChunksApplied.Value()
		chunksSent += srv.ChunksSent.Value()
		resumed += srv.ConstructsResumed.Value()
		chats += srv.ChatsDelivered.Value()
		constructs += srv.SCs().Count()
		if vm := srv.MinViewMargin(); viewMargin < 0 || vm < viewMargin {
			viewMargin = vm
		}
		if m := sh.SpecExec; m != nil {
			discards += m.Discards.Value()
			efficiency = append(efficiency, m.Efficiency...)
		}
		if tb := sh.TGBackend; tb != nil {
			tgBackendFailures += tb.Failures
			genDeduped += tb.GenDeduped
		}
		if c := sh.Cache; c != nil {
			cacheHits += c.Hits.Value()
			cacheMisses += c.Misses.Value()
			prefetch += c.PrefetchIssued.Value()
		}
	}
	vals["actions"] = float64(actions - b.actions)
	vals["chats_delivered"] = float64(chats - b.chats)
	vals["chunks_applied"] = float64(chunksApplied - b.chunksApplied)
	vals["chunks_sent"] = float64(chunksSent - b.chunksSent)
	vals["view_margin"] = float64(viewMargin)
	vals["constructs"] = float64(constructs)
	vals["constructs_resumed"] = float64(resumed - b.resumed)

	cost := 0.0
	var coldStarts, faults int64
	if spec.Backend.Constructs {
		vals["spec_efficiency_median"] = medianOf(efficiency)
		vals["invalidations"] = float64(discards - b.discards)
	}
	if f := r.sys.SCFn; f != nil {
		vals["sc_invocations"] = float64(int64(f.Invocations.Count()) - b.scInv)
		scCold := f.ColdStarts.Value() - b.scCold
		vals["sc_cold_starts"] = float64(scCold)
		coldStarts += scCold
		faults += f.FaultsInjected.Value() - b.scFaults
		cost += f.BilledDollars()
	}
	if f := r.sys.TGFn; f != nil {
		vals["tg_invocations"] = float64(int64(f.Invocations.Count()) - b.tgInv)
		tgCold := f.ColdStarts.Value() - b.tgCold
		vals["tg_cold_starts"] = float64(tgCold)
		coldStarts += tgCold
		faults += f.FaultsInjected.Value() - b.tgFaults
		cost += f.BilledDollars()
	}
	if spec.Backend.Terrain {
		vals["tg_failures"] = float64(tgBackendFailures - b.tgBackendFailures)
		vals["gen_deduped"] = float64(genDeduped - b.genDeduped)
	}
	if spec.hasFunctionBackend() {
		vals["cold_starts"] = float64(coldStarts)
		vals["faas_faults"] = float64(faults)
	}
	if r.sys.Shards[0].Cache != nil {
		hits := cacheHits - b.cacheHits
		misses := cacheMisses - b.cacheMisses
		vals["cache_hits"] = float64(hits)
		vals["cache_misses"] = float64(misses)
		if hits+misses > 0 {
			vals["cache_hit_rate"] = float64(hits) / float64(hits+misses)
		} else {
			vals["cache_hit_rate"] = 0
		}
		vals["prefetch_issued"] = float64(prefetch - b.prefetch)
	}
	if st := r.sys.Remote; st != nil {
		reads, writes, storeFaults := st.Reads.Value(), st.Writes.Value(), st.FaultsInjected.Value()
		if alt := r.localAlt; alt != nil { // count the flip's local side too
			reads += alt.Reads.Value()
			writes += alt.Writes.Value()
			storeFaults += alt.FaultsInjected.Value()
			cost += alt.BilledDollars()
		}
		vals["storage_reads"] = float64(reads - b.reads)
		vals["storage_writes"] = float64(writes - b.writes)
		vals["storage_faults"] = float64(storeFaults - b.storeFaults)
		// p99 covers the serverless/remote store only (the flip's local
		// side has local-disk latency and would skew the tail).
		vals["storage_read_p99_ms"] = msOf(st.ReadLatency.Percentile(99))
		cost += st.BilledDollars()
	}
	if cl := r.sys.Cluster; cl != nil {
		vals["shards"] = float64(len(r.sys.Shards))
		vals["handoffs"] = float64(cl.Handoffs.Value() - b.handoffs)
		vals["handoff_mean_ms"] = msOf(cl.HandoffLatency.Mean())
		vals["handoff_p99_ms"] = msOf(cl.HandoffLatency.Percentile(99))
		vals["ownership_epoch"] = float64(cl.Epoch())
		vals["rebalances"] = float64(cl.Rebalances.Value() - b.rebalances)
		vals["tiles_moved"] = float64(cl.TilesMoved.Value() - b.tilesMoved)
		vals["bands_moved"] = vals["tiles_moved"] // PR 3 band-era alias
		vals["failovers"] = float64(cl.Failovers.Value() - b.failovers)
		vals["players_failed_over"] = float64(cl.PlayersFailedOver.Value() - b.playersFailedOver)
		vals["shards_active"] = float64(cl.AliveCount())
		vals["shards_peak"] = float64(cl.ShardsPeak)
		vals["scale_ups"] = float64(cl.ScaleUps.Value() - b.scaleUps)
		vals["scale_downs"] = float64(cl.ScaleDowns.Value() - b.scaleDowns)
		vals["quarantines"] = float64(cl.Quarantines.Value() - b.quarantines)
		vals["tiles_drained"] = float64(cl.TilesDrained.Value() - b.tilesDrained)
		if spec.Visibility != nil {
			vals["ghost_avatars"] = float64(cl.GhostCount())
			vals["ghost_updates"] = float64(cl.GhostUpdates.Value() - b.ghostUpdates)
			vals["visibility_gap_ticks"] = float64(cl.VisibilityGaps.Value() - b.visibilityGaps)
		}
		// Load imbalance: max over shards of mean tick duration, divided
		// by the cross-shard mean (1 = perfectly balanced).
		var loads []float64
		for _, sh := range r.sys.Shards {
			loads = append(loads, float64(sh.Server.TickDurations.Mean()))
		}
		vals["load_imbalance"] = metrics.ImbalanceRatio(loads)
		for i, sh := range r.sys.Shards {
			srv := sh.Server
			vals[fmt.Sprintf("shard%d_ticks_total", i)] = float64(srv.TickDurations.Len())
			vals[fmt.Sprintf("shard%d_tick_p50_ms", i)] = msOf(srv.TickDurations.Percentile(50))
			vals[fmt.Sprintf("shard%d_tick_p99_ms", i)] = msOf(srv.TickDurations.Percentile(99))
			vals[fmt.Sprintf("shard%d_players_final", i)] = float64(srv.PlayerCount())
			// Shards added after warm-up have no baseline row: their
			// counters started at zero inside the measured window.
			var hin, hout int64
			if i < len(b.handoffsIn) {
				hin, hout = b.handoffsIn[i], b.handoffsOut[i]
			}
			vals[fmt.Sprintf("shard%d_handoffs_in", i)] = float64(cl.HandoffsIn[i].Value() - hin)
			vals[fmt.Sprintf("shard%d_handoffs_out", i)] = float64(cl.HandoffsOut[i].Value() - hout)
			// Membership span: the first and last tick this shard slot ever
			// ran (warm-up included), so a report over a dynamic shard set
			// shows when each shard was active. -1 = the slot never ticked.
			if times, _ := srv.TickSeries.Points(); len(times) > 0 {
				vals[fmt.Sprintf("shard%d_first_active_ms", i)] = msOf(times[0])
				vals[fmt.Sprintf("shard%d_last_active_ms", i)] = msOf(times[len(times)-1])
			} else {
				vals[fmt.Sprintf("shard%d_first_active_ms", i)] = -1
				vals[fmt.Sprintf("shard%d_last_active_ms", i)] = -1
			}
		}
	}
	vals["cost_dollars"] = cost

	rep := &Report{Name: spec.Name, Virtual: spec.Duration.D(), Pass: true, Wall: r.wall, BotSeconds: r.botSeconds}
	for i, sh := range r.sys.Shards {
		times, durs := sh.Server.TickSeries.Points()
		series := ShardSeries{Shard: i, Ticks: make([]TickPoint, len(times))}
		for j := range times {
			series.Ticks[j] = TickPoint{At: times[j], Dur: durs[j]}
		}
		rep.Series = append(rep.Series, series)
	}
	if cl := r.sys.Cluster; cl != nil {
		for _, tl := range cl.TileLoads() {
			rep.TileLoads = append(rep.TileLoads, TileLoadRow{
				X: tl.Tile.X, Z: tl.Tile.Z, Owner: tl.Owner,
				Actions: tl.Actions, Stores: tl.Stores,
			})
		}
		times, counts := cl.ShardsActive.Points()
		for j := range times {
			rep.ScaleSeries = append(rep.ScaleSeries, ScalePoint{At: times[j], Count: int(counts[j])})
		}
		for _, ev := range cl.ScaleLog.All() {
			rep.ScaleEvents = append(rep.ScaleEvents, ScaleEventRow{
				At: ev.At, Kind: ev.Kind, Shard: ev.Shard,
				Tiles: ev.Tiles, Epoch: ev.Epoch,
			})
		}
	}
	for _, e := range metricOrder {
		if v, ok := vals[e.Name]; ok {
			rep.Metrics = append(rep.Metrics, Metric{Name: e.Name, Value: v})
		}
	}
	if r.sys.Cluster != nil {
		// Per-shard rollup rows, after the registry metrics, in shard
		// order.
		for i := range r.sys.Shards {
			for _, base := range shardMetricBases {
				name := fmt.Sprintf("shard%d_%s", i, base)
				if v, ok := vals[name]; ok {
					rep.Metrics = append(rep.Metrics, Metric{Name: name, Value: v})
				}
			}
		}
	}
	for _, a := range spec.Assertions {
		actual := vals[a.Metric]
		if a.Windowed() {
			switch a.Metric {
			case "load_imbalance":
				actual = r.windowImbalance(a.From.D(), a.To.D())
			case "view_margin":
				actual = r.windowViewMargin(a.From.D(), a.To.D())
			default:
				actual = tickMetric(a.Metric, r.windowTicks(a.From.D(), a.To.D()))
			}
		}
		c := Check{Assertion: a, Actual: actual, Ok: a.holds(actual)}
		if !c.Ok {
			rep.Pass = false
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// flipStore switches the server's chunk/player store between the
// serverless stack and a local-disk-class store at runtime (the
// flip_storage event). Chunks absent from the newly active side simply
// regenerate through the normal terrain path.
type flipStore struct {
	serverless, local mve.ChunkStore
	useLocal          bool
}

var (
	_ mve.ChunkStore         = (*flipStore)(nil)
	_ mve.BatchingChunkStore = (*flipStore)(nil)
	_ mve.PlayerStore        = (*flipStore)(nil)
	_ mve.AvatarObserver     = (*flipStore)(nil)
)

func (f *flipStore) cur() mve.ChunkStore {
	if f.useLocal {
		return f.local
	}
	return f.serverless
}

func (f *flipStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) { f.cur().Load(pos, cb) }
func (f *flipStore) Store(c *world.Chunk)                                 { f.cur().Store(c) }

// LoadMany forwards a batched load to whichever side is active, falling
// back to per-position loads if that side has no batch path.
func (f *flipStore) LoadMany(pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	cur := f.cur()
	if bs, ok := cur.(mve.BatchingChunkStore); ok {
		bs.LoadMany(pos, cb)
		return
	}
	for _, cp := range pos {
		cp := cp
		cur.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

func (f *flipStore) SavePlayer(name string, data []byte) {
	if ps, ok := f.cur().(mve.PlayerStore); ok {
		ps.SavePlayer(name, data)
	}
}

func (f *flipStore) LoadPlayer(name string, cb func([]byte, bool)) {
	if ps, ok := f.cur().(mve.PlayerStore); ok {
		ps.LoadPlayer(name, cb)
		return
	}
	cb(nil, false)
}

func (f *flipStore) ObserveAvatars(positions []world.BlockPos, radius int) {
	if o, ok := f.cur().(mve.AvatarObserver); ok {
		o.ObserveAvatars(positions, radius)
	}
}
