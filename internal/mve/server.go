package mve

import (
	"math"
	"slices"
	"sort"
	"time"

	"servo/internal/metrics"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// ChunkStore abstracts chunk persistence: the baselines persist to local
// disk, Servo to cached serverless storage (internal/servo/rstore).
type ChunkStore interface {
	// Load fetches the chunk at pos; ok is false if it was never stored.
	Load(pos world.ChunkPos, cb func(c *world.Chunk, ok bool))
	// Store persists the chunk (asynchronously; write-back allowed).
	Store(c *world.Chunk)
}

// BatchingChunkStore is an optional ChunkStore extension that serves a
// whole tick's worth of loads in one call. The server coalesces every
// chunk requested between flushes into a single LoadMany — one substrate
// event per tick instead of one per chunk — and the store answers each
// position through cb exactly as Load would, in the order given.
type BatchingChunkStore interface {
	LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool))
}

// AvatarObserver is implemented by stores that pre-fetch based on avatar
// positions (Servo's terrain cache, §III-E). The server calls it once per
// terrain scan with its avatars (ghosts included) and a radius of
// ViewDistance+PrefetchMargin blocks.
//
// positions is borrowed for the call only: the server double-buffers it
// across a sim.Commit and refills it on a later scan, so an
// implementation must not retain it. Order matters: a bounded prefetch
// budget favours earlier avatars. Implementations must be deterministic
// in positions and radius: the fetches they start draw storage latencies
// from the clock's RNG in the order they are issued.
type AvatarObserver interface {
	ObserveAvatars(positions []world.BlockPos, radius int)
}

// SyncingChunkStore is an optional ChunkStore extension whose writes
// report completion. Ownership migrations gate the ownership flip on the
// source shard's flush landing (FlushOwnedChunks), so a storage brownout
// delays a migration but never loses chunk state.
type SyncingChunkStore interface {
	// StoreThen persists the chunk and calls done once the write has
	// landed in backing storage (retrying through transient faults).
	StoreThen(c *world.Chunk, done func())
}

// Config configures a Server.
type Config struct {
	Profile Profile
	// WorldType is "flat" or "default" (Table I).
	WorldType string
	// Seed drives terrain generation (the clock owns simulation RNG).
	Seed int64
	// ViewDistance in blocks (default 128, the paper's default).
	ViewDistance int
	// TickInterval is 1/R (default 50 ms, R = 20 Hz).
	TickInterval time.Duration
	// Cost overrides the profile's calibrated cost parameters.
	Cost *CostParams
	// SC overrides the profile's construct backend.
	SC SCBackend
	// Terrain overrides the profile's terrain backend.
	Terrain TerrainBackend
	// Store enables chunk persistence.
	Store ChunkStore
	// ChunkPool recycles Chunk allocations through the churn paths
	// (far-chunk unloads, superseded applies). Typically shared with the
	// store and terrain backend so recycled chunks feed their decode
	// paths. Nil disables recycling (plain allocation).
	ChunkPool *world.ChunkPool
	// MaxChunkSendsPerTick throttles per-player chunk serialisation
	// (default 4, as real servers do).
	MaxChunkSendsPerTick int
	// Region is the slice of chunk space this server owns. The zero value
	// owns everything (the unsharded single-server case). A sharded server
	// still loads ghost chunks outside its region when players near a
	// boundary can see them, but only the owning shard persists a chunk,
	// so N shards over one storage substrate never write the same key.
	Region world.Region
	// BootCenters are the block positions whose surroundings (view
	// distance plus the unload margin) are loaded before the server opens.
	// Empty means the world spawn point. A cluster shard boots both spawn
	// and its own region's home band so shard-aware fleet placement does
	// not open with a generation storm.
	BootCenters []world.BlockPos
	// FullDemandRescan disables the incremental terrain-demand cursor:
	// every scan re-walks every player's whole view rect, the
	// pre-incremental behaviour. The observable request/send streams are
	// identical either way — this is the benchmark baseline and the
	// determinism cross-check, not a correctness knob.
	FullDemandRescan bool
	// PhaseLock keeps the tick schedule phase-aligned through overload:
	// after an overlong tick (duration > TickInterval) the next tick
	// snaps to the next global TickInterval boundary instead of running
	// exactly one tick-duration later. Without it one overlong tick
	// phase-shifts the shard against its peers forever, so same-timestamp
	// waves — the parallel scheduler's unit of concurrency — degrade to
	// singletons exactly when the cluster saturates. Virtual-time
	// arithmetic only: byte-identical at every worker-pool size.
	PhaseLock bool
}

// Defaults for Config fields.
const (
	DefaultViewDistance = 128
	DefaultTickInterval = 50 * time.Millisecond
	defaultMaxSends     = 4
	// terrainScanPeriod is how often (in ticks) view-distance demand is
	// recomputed.
	terrainScanPeriod = 5
	// unloadScanPeriod is how often (in ticks) far chunks are unloaded.
	unloadScanPeriod = 100
	// unloadMargin keeps chunks loaded this far beyond view distance.
	unloadMargin = 32
	// bootGraceTicks is the start-up window during which chunk application
	// is free: world loading happens before the server opens to players,
	// so boot bursts must not register as giant first ticks.
	bootGraceTicks = 40
	// PrefetchMargin is how far beyond view distance Servo's store
	// pre-fetches (§III-E: "outside of, but close to, the player's view
	// distance").
	PrefetchMargin = 48
)

// haltedConstruct is a construct whose chunk was unloaded; its simulation
// is halted (§II-A) and resumes when the chunk reloads.
type haltedConstruct struct {
	construct *sc.Construct
	anchor    world.BlockPos
}

// Server is one MVE instance: a world, its players, and the 20 Hz loop.
// It runs entirely on a sim.Clock; it is not safe for concurrent use (the
// clock serialises all access).
type Server struct {
	clock sim.Clock
	cfg   Config
	cost  CostParams

	world   *world.World
	gen     terrain.Generator
	scs     SCBackend
	terrain TerrainBackend
	store   ChunkStore

	players     map[PlayerID]*Player
	playerOrder []PlayerID
	nextPlayer  PlayerID

	// Ghost registry (ghost.go): read-only avatars replicated from
	// neighbouring shards by the cluster's visibility bus.
	ghosts     map[string]*GhostAvatar
	ghostOrder []string
	nextGhost  int64

	// Per-tile cost attribution: actions and chunk stores keyed by the
	// region tile they happened in (nil topology — the unsharded case —
	// disables attribution entirely).
	tileTopo    world.Topology
	tileActions map[world.TileID]int64
	tileStores  map[world.TileID]int64

	// Construct placement: world-footprint → construct id, plus anchors
	// for halting on unload.
	footprint map[world.BlockPos]uint64
	anchors   map[uint64]haltedConstruct
	halted    map[world.ChunkPos][]haltedConstruct

	// requested tracks chunk demand already in flight (store load or
	// generation).
	requested map[world.ChunkPos]bool
	// loadedFromStore queues store-loaded chunks for on-loop application;
	// the backing array is reused across ticks.
	loadedFromStore []*world.Chunk
	// pendingLoads coalesces the chunk-load requests issued since the
	// last flush; flushChunkLoads turns the whole batch into one commit
	// (and, on a BatchingChunkStore, one LoadMany call) instead of one
	// substrate event per chunk.
	pendingLoads []world.ChunkPos
	loadFn       func()
	loadCB       func(pos world.ChunkPos, c *world.Chunk, ok bool)
	// storeBatch groups this tick's persistence writes into one commit
	// (flushFn); recycleBatch holds the chunks to return to the pool once
	// those writes have been issued (stores encode synchronously, so a
	// chunk is recyclable the moment its Store call returns).
	storeBatch   []*world.Chunk
	recycleBatch []*world.Chunk
	flushFn      func()
	pool         *world.ChunkPool
	// drainBuf is the reused per-tick terrain-drain slice (DrainAppend).
	drainBuf []*world.Chunk
	// newlyLoaded accumulates chunk positions applied since the last
	// demand scan: the only chunks a clean-cursor player can newly see
	// (see scanTerrainDemand).
	newlyLoaded []world.ChunkPos

	// Reusable tick-loop scratch, so the steady-state tick allocates
	// nothing. obsBufs double-buffers the avatar positions handed to the
	// store's ObserveAvatars: the hand-off crosses a sim.Commit closure
	// that runs after the wave, so the buffer being filled next scan must
	// not be the one still referenced by the pending commit.
	obsBufs    [2][]world.BlockPos
	obsIdx     int
	obsPending []world.BlockPos
	obsFn      func()
	unloadAll  []world.ChunkPos
	unloadFar  []world.ChunkPos
	unloadIDs  []uint64
	// tickFn is the stored tickOnce method value; rescheduling through it
	// avoids a closure allocation every tick.
	tickFn func()

	tick    uint64
	running bool
	stopped bool

	// chatRelay, when set, fans chat messages out beyond this server
	// (cluster-wide delivery); it returns the number of recipients for
	// cost accounting. Nil keeps the classic local fan-out.
	chatRelay func(from *Player) int

	// Metrics.
	TickDurations  *metrics.Sample
	TickSeries     *metrics.TimeSeries
	ChunksApplied  metrics.Counter
	ChunksSent     metrics.Counter
	ActionCount    metrics.Counter
	ChatsDelivered metrics.Counter
	// TerrainRecomputes counts full per-player demand-rect walks — the
	// incremental scan's cache-miss counter (the engine-tick sibling of
	// the visibility bus's VisRecomputes).
	TerrainRecomputes metrics.Counter
	// ConstructsResumed counts halted constructs whose simulation resumed
	// because their chunk was reloaded (§II-A).
	ConstructsResumed metrics.Counter
}

// NewServer builds a server on clock. Zero-value config fields take the
// documented defaults; the profile defaults the cost table and backends.
func NewServer(clock sim.Clock, cfg Config) *Server {
	if cfg.Profile == 0 {
		cfg.Profile = ProfileOpencraft
	}
	if cfg.ViewDistance == 0 {
		cfg.ViewDistance = DefaultViewDistance
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	if cfg.MaxChunkSendsPerTick == 0 {
		cfg.MaxChunkSendsPerTick = defaultMaxSends
	}
	cost := Params(cfg.Profile)
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	gen := terrain.ForWorldType(cfg.WorldType, cfg.Seed)
	s := &Server{
		clock:         clock,
		cfg:           cfg,
		cost:          cost,
		world:         world.New(),
		gen:           gen,
		scs:           cfg.SC,
		terrain:       cfg.Terrain,
		store:         cfg.Store,
		players:       make(map[PlayerID]*Player),
		ghosts:        make(map[string]*GhostAvatar),
		footprint:     make(map[world.BlockPos]uint64),
		anchors:       make(map[uint64]haltedConstruct),
		halted:        make(map[world.ChunkPos][]haltedConstruct),
		requested:     make(map[world.ChunkPos]bool),
		TickDurations: metrics.NewSample(16384),
		TickSeries:    &metrics.TimeSeries{},
	}
	s.tickFn = s.tickOnce
	s.pool = cfg.ChunkPool
	// Persistent closures for the per-tick batched commits, so the
	// steady-state tick allocates nothing. loadCB answers one position of
	// a batched load; loadFn issues the whole pending batch (one LoadMany
	// when the store supports it) and resets the buffer — it runs in
	// serial context (commit drain), strictly before the next tick's
	// appends on this shard's lane.
	s.loadCB = func(pos world.ChunkPos, c *world.Chunk, ok bool) {
		if ok {
			s.loadedFromStore = append(s.loadedFromStore, c)
			return
		}
		s.terrain.Request(pos)
	}
	s.loadFn = func() {
		batch := s.pendingLoads
		if bs, ok := s.store.(BatchingChunkStore); ok {
			bs.LoadMany(batch, s.loadCB)
		} else {
			for _, cp := range batch {
				cp := cp
				s.store.Load(cp, func(c *world.Chunk, ok bool) { s.loadCB(cp, c, ok) })
			}
		}
		s.pendingLoads = s.pendingLoads[:0]
	}
	s.flushFn = func() {
		for _, c := range s.storeBatch {
			s.store.Store(c)
		}
		for i := range s.storeBatch {
			s.storeBatch[i] = nil
		}
		s.storeBatch = s.storeBatch[:0]
		for i, c := range s.recycleBatch {
			s.pool.Put(c)
			s.recycleBatch[i] = nil
		}
		s.recycleBatch = s.recycleBatch[:0]
	}
	if cfg.Region.Table != nil {
		s.tileTopo = cfg.Region.Table.Topology()
	} else {
		s.tileTopo = cfg.Region.Topo
	}
	if s.tileTopo != nil {
		s.tileActions = make(map[world.TileID]int64)
		s.tileStores = make(map[world.TileID]int64)
	}
	if s.scs == nil {
		s.scs = NewLocalSC(cost.SCEveryOtherTick)
	}
	if s.terrain == nil {
		s.terrain = NewLocalTerrain(clock, gen)
	}
	// Boot each boot region out to view distance plus the unload margin,
	// as production servers do: players joining at spawn must not trigger
	// a generation storm. Without persistent storage the regions are
	// generated synchronously; with a store they are loaded through the
	// normal storage path (a restarted server reads its world back),
	// which is where the boot-time cold reads of Fig. 13 come from.
	centers := cfg.BootCenters
	if len(centers) == 0 {
		centers = []world.BlockPos{{}}
	}
	for _, center := range centers {
		for _, pos := range world.ChunksWithin(center, cfg.ViewDistance+unloadMargin) {
			if s.world.Loaded(pos) {
				continue // overlapping boot centers
			}
			if s.store != nil {
				s.requestChunk(pos)
			} else {
				s.applyChunk(gen.Generate(pos), false)
			}
		}
	}
	s.flushChunkLoads()
	return s
}

// OwnedRegion returns the slice of chunk space this server owns (the whole
// grid for an unsharded server).
func (s *Server) OwnedRegion() world.Region { return s.cfg.Region }

// owned reports whether this server is the persisting owner of the chunk.
func (s *Server) owned(cp world.ChunkPos) bool { return s.cfg.Region.Contains(cp) }

// TileCost is the work one server attributed to a region tile: player
// actions processed there and chunk writes issued for its terrain — the
// per-tile load signal behind the resident-player proxy the controller
// uses today.
type TileCost struct {
	Actions, Stores int64
}

// TileCosts returns a copy of the per-tile attributed cost since boot
// (empty for an unsharded server, which has no tiles).
func (s *Server) TileCosts() map[world.TileID]TileCost {
	out := make(map[world.TileID]TileCost, len(s.tileActions))
	for t, n := range s.tileActions {
		c := out[t]
		c.Actions = n
		out[t] = c
	}
	for t, n := range s.tileStores {
		c := out[t]
		c.Stores = n
		out[t] = c
	}
	return out
}

// AdoptTileCosts folds a predecessor server's per-tile cost accounting
// into this one (a shard rebuilt after failover, or a retired slot
// reused by a scale-up). Demand-rate consumers difference the
// cluster-summed signal over time, so a replacement server must not
// make the cumulative totals regress.
func (s *Server) AdoptTileCosts(costs map[world.TileID]TileCost) {
	if s.tileTopo == nil {
		return
	}
	for t, c := range costs {
		s.tileActions[t] += c.Actions
		s.tileStores[t] += c.Stores
	}
}

// noteAction attributes one processed action to the acting avatar's tile.
func (s *Server) noteAction(pos world.BlockPos) {
	if s.tileTopo != nil {
		s.tileActions[s.tileTopo.TileOf(pos.Chunk())]++
	}
}

// noteStore attributes one chunk write to the chunk's tile.
func (s *Server) noteStore(cp world.ChunkPos) {
	if s.tileTopo != nil {
		s.tileStores[s.tileTopo.TileOf(cp)]++
	}
}

// Clock returns the server's clock.
func (s *Server) Clock() sim.Clock { return s.clock }

// SetStore replaces the chunk store (e.g. to interpose a measurement
// probe). It must be called before Start.
func (s *Server) SetStore(store ChunkStore) {
	s.store = store
	s.cfg.Store = store
}

// World returns the server's loaded world.
func (s *Server) World() *world.World { return s.world }

// Config returns the server's effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Tick returns the current tick number.
func (s *Server) Tick() uint64 { return s.tick }

// SCs returns the construct backend.
func (s *Server) SCs() SCBackend { return s.scs }

// Start begins the game loop. It may be called once.
func (s *Server) Start() {
	if s.running {
		return
	}
	s.running = true
	s.clock.After(s.cfg.TickInterval, s.tickFn)
}

// Stop halts the game loop after the current tick.
func (s *Server) Stop() { s.stopped = true }

// Crash models the shard process dying mid-run: the loop halts and every
// in-memory session is dropped — their state survives only as far as it
// was persisted. A crashed server stays inert; shard failover builds a
// replacement over the persisted world instead of restarting it
// (cluster.RecoverShard).
func (s *Server) Crash() {
	s.stopped = true
	s.players = make(map[PlayerID]*Player)
	s.playerOrder = nil
	s.ghosts = make(map[string]*GhostAvatar)
	s.ghostOrder = nil
}

// SetChatRelay installs a cluster-wide chat fan-out: chat actions deliver
// through relay (which returns the recipient count) instead of to this
// server's local players only.
func (s *Server) SetChatRelay(relay func(from *Player) int) { s.chatRelay = relay }

// FlushOwnedChunks persists every loaded chunk this server owns matching
// pred (nil matches all), calling done once after every write has landed.
// With a completion-reporting store (SyncingChunkStore) the writes retry
// through fault windows before done fires — the guarantee an ownership
// migration needs before flipping a tile to a new owner. Stores without
// completion reporting get their writes issued fire-and-forget and done
// runs immediately.
func (s *Server) FlushOwnedChunks(pred func(world.ChunkPos) bool, done func()) {
	if done == nil {
		done = func() {}
	}
	if s.store == nil {
		done()
		return
	}
	chunks := s.world.LoadedChunks()
	// Deterministic write order: the store draws latency and fault
	// outcomes from the clock RNG per operation.
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].X != chunks[j].X {
			return chunks[i].X < chunks[j].X
		}
		return chunks[i].Z < chunks[j].Z
	})
	syncStore, _ := s.store.(SyncingChunkStore)
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	for _, cp := range chunks {
		if !s.owned(cp) || (pred != nil && !pred(cp)) {
			continue
		}
		c := s.world.Chunk(cp)
		s.noteStore(cp)
		if syncStore != nil {
			pending++
			syncStore.StoreThen(c, finish)
		} else {
			s.store.Store(c)
		}
	}
	finish()
}

// SpawnConstruct activates a simulated construct whose grid cell (0, 0)
// maps to the anchor block position (cells extend along +X and +Z on the
// terrain surface). Returns the construct id.
func (s *Server) SpawnConstruct(c *sc.Construct, anchor world.BlockPos) uint64 {
	id := s.scs.Add(c)
	s.anchors[id] = haltedConstruct{construct: c, anchor: anchor}
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if c.At(x, y).Kind == sc.Empty {
				continue
			}
			bp := anchor.Offset(x, 0, y)
			s.footprint[bp] = id
			s.world.SetBlockAt(bp, world.Block{ID: blockForCell(c.At(x, y).Kind)})
		}
	}
	return id
}

// ActiveConstructAt returns the id of the active construct anchored at
// anchor. Anchors are stable across the halt/resume cycle while ids are
// not (resuming re-adds the construct under a fresh id), so cross-shard
// ownership tracks constructs by anchor and resolves the live id here.
// With multiple constructs on one anchor the smallest id wins, keeping
// the lookup deterministic.
func (s *Server) ActiveConstructAt(anchor world.BlockPos) (uint64, bool) {
	best, found := uint64(0), false
	for id, h := range s.anchors {
		if h.anchor == anchor && (!found || id < best) {
			best, found = id, true
		}
	}
	return best, found
}

// EvictConstruct deactivates an active construct and clears its world
// footprint, returning the construct and its anchor so a cluster can
// transfer it to another shard (the inverse of SpawnConstruct). Unlike
// unload halting, the construct will not resume on this server. Halted
// constructs (their chunk is unloaded) are not evictable and return false.
func (s *Server) EvictConstruct(id uint64) (*sc.Construct, world.BlockPos, bool) {
	h, ok := s.anchors[id]
	if !ok {
		return nil, world.BlockPos{}, false
	}
	s.scs.Remove(id)
	delete(s.anchors, id)
	w, ch := h.construct.Size()
	for y := 0; y < ch; y++ {
		for x := 0; x < w; x++ {
			bp := h.anchor.Offset(x, 0, y)
			if s.footprint[bp] == id {
				delete(s.footprint, bp)
				s.world.SetBlockAt(bp, world.Block{})
			}
		}
	}
	return h.construct, h.anchor, true
}

func blockForCell(k sc.CellKind) world.BlockID {
	switch k {
	case sc.Wire:
		return world.Wire
	case sc.Source:
		return world.Battery
	case sc.Lamp:
		return world.Lamp
	case sc.Repeater:
		return world.Repeater
	case sc.Inverter:
		return world.Inverter
	}
	return world.Air
}

// --- The game loop -----------------------------------------------------------

// tickOnce runs one simulation tick and schedules the next.
func (s *Server) tickOnce() {
	if s.stopped {
		s.running = false
		return
	}
	s.tick++
	rng := s.clock.RNG()
	var work time.Duration
	work += s.cost.TickBase

	// 1. Player behaviors produce actions; process them.
	dt := s.cfg.TickInterval.Seconds()
	for _, id := range s.playerOrder {
		p := s.players[id]
		work += s.cost.PerPlayer
		if p.behavior != nil {
			for _, a := range p.behavior.Actions(rng, p, s) {
				work += s.processAction(p, a)
			}
		}
		p.advance(dt)
	}

	// 2. Simulated constructs.
	scw := s.scs.Tick(s.tick)
	work += time.Duration(scw.WorkUnits) * s.cost.SCWorkNs
	n := s.scs.Count()
	if scw.Simulated && s.cost.SCDensityCubeNs > 0 {
		work += time.Duration(float64(n*n*n) * s.cost.SCDensityCubeNs)
	}
	if s.cost.ServoPerSC > 0 {
		work += time.Duration(n) * s.cost.ServoPerSC
	}

	// 3. Terrain demand, application, and sending.
	if s.tick%terrainScanPeriod == 0 {
		s.scanTerrainDemand()
	}
	work += s.applyCompletedChunks()
	work += s.drainSendQueues()
	busy, queued := s.terrain.Load()
	work += time.Duration(busy) * s.cost.GenInterferencePerWorker
	if queued > 500 {
		queued = 500
	}
	work += time.Duration(queued) * s.cost.GenQueuePressure

	// 4. Unload far terrain periodically.
	if s.tick%unloadScanPeriod == 0 {
		s.unloadFarChunks()
	}
	// Flush the tick's grouped persistence writes (generated terrain from
	// step 3, unloads from step 4) as one commit, then recycle the written
	// chunks. The writes reach shared substrate in the same per-chunk
	// order the old per-chunk commits used.
	if len(s.storeBatch) > 0 || len(s.recycleBatch) > 0 {
		sim.Commit(s.clock, s.flushFn)
	}

	// 5. Tick duration: work plus hardware noise and rare GC-like tails.
	d := time.Duration(float64(work) * math.Exp(s.cost.NoiseSigma*rng.NormFloat64()))
	tailP := s.cost.TailP + float64(len(s.players))*s.cost.TailPPerPlayer
	if rng.Float64() < tailP {
		d = time.Duration(float64(d) * (1 + rng.Float64()*(s.cost.TailScale-1)))
	}
	s.TickDurations.Add(d)
	s.TickSeries.Add(s.clock.Now(), d)

	// 6. Next tick: at the fixed rate, or immediately after an overlong
	// tick (an overloaded server ticks back to back). With PhaseLock the
	// overlong reschedule snaps forward to the next global TickInterval
	// boundary, so shards that fell behind re-join the cluster-wide wave
	// instead of drifting off-phase forever.
	next := s.cfg.TickInterval
	if d > next {
		next = d
		if s.cfg.PhaseLock {
			target := s.clock.Now() + d
			if rem := target % s.cfg.TickInterval; rem != 0 {
				target += s.cfg.TickInterval - rem
			}
			next = target - s.clock.Now()
		}
	}
	s.clock.After(next, s.tickFn)
}

// scanTerrainDemand requests every chunk within any player's view distance
// that is neither loaded nor already requested, and refreshes send queues.
//
// The scan is incremental: each player caches the chunk rect its view
// distance resolved to at its last full walk (the demand cursor). A
// player whose rect is unchanged is clean, and for a clean player the
// full walk is a no-op by construction — after a full walk every chunk
// in the rect is either known (queued for send) or in flight in
// s.requested, requests only leave that set by loading (tracked in
// s.newlyLoaded), and an unload of a chunk inside a cached rect
// invalidates the cursor (unloadFarChunks). So clean players only need
// the chunks applied since the previous scan, replayed in rect order;
// dirty players — fresh sessions, handoff arrivals, chunk-rect
// crossings, view-distance changes — take the full walk and count one
// TerrainRecomputes. The request/send streams are byte-identical to the
// full rescan (Config.FullDemandRescan is the cross-check).
func (s *Server) scanTerrainDemand() {
	avatars := s.obsBufs[s.obsIdx][:0]
	newly := s.newlyLoaded
	if len(newly) > 1 {
		slices.SortFunc(newly, func(a, b world.ChunkPos) int {
			if a.X != b.X {
				return a.X - b.X
			}
			return a.Z - b.Z
		})
	}
	for _, id := range s.playerOrder {
		p := s.players[id]
		pos := p.Pos()
		avatars = append(avatars, pos)
		rect := world.ChunkRectWithin(pos, s.cfg.ViewDistance)
		if !s.cfg.FullDemandRescan && p.demandValid && rect == p.demandRect {
			// Clean cursor: replay only the chunks loaded since the last
			// scan. Sorted (X, Z) order is exactly the full walk's
			// iteration order restricted to this set, so the send queue
			// receives them in the same order a full rescan would.
			for _, cp := range newly {
				if rect.Contains(cp) && !p.known[cp] {
					p.known[cp] = true
					p.sendQueue = append(p.sendQueue, cp)
				}
			}
			continue
		}
		s.TerrainRecomputes.Inc()
		for cx := rect.Min.X; cx <= rect.Max.X; cx++ {
			for cz := rect.Min.Z; cz <= rect.Max.Z; cz++ {
				cp := world.ChunkPos{X: cx, Z: cz}
				if s.world.Loaded(cp) {
					if !p.known[cp] {
						p.known[cp] = true
						p.sendQueue = append(p.sendQueue, cp)
					}
					continue
				}
				s.requestChunk(cp)
			}
		}
		p.demandRect, p.demandValid = rect, true
	}
	s.newlyLoaded = newly[:0]
	// Focus-aware backends (the serverless terrain backend's bounded
	// nearest-player-first dispatch) get the player positions; the backend
	// copies them, so handing over the scratch buffer is safe.
	if tf, ok := s.terrain.(TerrainFocus); ok {
		tf.SetFocus(avatars)
	}
	// One commit for the whole scan's chunk loads, queued ahead of the
	// prefetch observation below so the per-chunk storage order matches
	// the old per-chunk commits.
	s.flushChunkLoads()
	// Give pre-fetching stores the avatar positions (§III-E) — ghosts
	// included, so the terrain around an avatar approaching from a
	// neighbouring shard is warm before its handoff lands. The store
	// stack reaches shared substrate (remote blob reads), so the call
	// goes through the commit buffer on a lane clock; obsPending is read
	// by the persistent closure at drain time, and the buffer flip keeps
	// the next scan from clobbering it while queued.
	if _, ok := s.store.(AvatarObserver); ok {
		for _, name := range s.ghostOrder {
			avatars = append(avatars, s.ghosts[name].Pos())
		}
		s.obsBufs[s.obsIdx] = avatars
		s.obsIdx = 1 - s.obsIdx
		s.obsPending = avatars
		if s.obsFn == nil {
			s.obsFn = func() {
				if obs, ok := s.store.(AvatarObserver); ok {
					obs.ObserveAvatars(s.obsPending, s.cfg.ViewDistance+PrefetchMargin)
				}
			}
		}
		sim.Commit(s.clock, s.obsFn)
		return
	}
	s.obsBufs[s.obsIdx] = avatars
}

// ScanTerrainDemand runs one demand scan outside the tick cadence — the
// benchmark entry point (the game loop calls the scan on its own period).
func (s *Server) ScanTerrainDemand() { s.scanTerrainDemand() }

// SetViewDistance changes the view distance mid-run and invalidates
// every player's demand cursor, so the next scan re-walks the new rects
// in full.
func (s *Server) SetViewDistance(blocks int) {
	if blocks <= 0 || blocks == s.cfg.ViewDistance {
		return
	}
	s.cfg.ViewDistance = blocks
	for _, p := range s.players {
		p.demandValid = false
	}
}

// requestChunk starts the load-or-generate path for one chunk. With a
// store the request is only queued; flushChunkLoads turns the queue into
// one batched commit per scan.
func (s *Server) requestChunk(cp world.ChunkPos) {
	if s.requested[cp] {
		return
	}
	s.requested[cp] = true
	if s.store != nil {
		s.pendingLoads = append(s.pendingLoads, cp)
		return
	}
	s.terrain.Request(cp)
}

// flushChunkLoads issues every queued chunk load as one commit. The loads
// reach shared substrate and their callbacks run from storage-completion
// events (serial context), so touching per-shard state there is safe —
// exactly as the old per-chunk commits did, in the same per-chunk order,
// but costing one substrate event per scan instead of one per chunk.
func (s *Server) flushChunkLoads() {
	if s.store == nil || len(s.pendingLoads) == 0 {
		return
	}
	sim.Commit(s.clock, s.loadFn)
}

// applyCompletedChunks integrates generated and store-loaded chunks into
// the world and returns the work cost. Persistence writes for freshly
// generated terrain are grouped into the tick's store batch (one commit
// per tick, flushed by tickOnce) instead of one commit per chunk, and
// superseded chunks are recycled through the pool.
func (s *Server) applyCompletedChunks() time.Duration {
	var cost time.Duration
	apply := func(c *world.Chunk) bool {
		if s.world.Loaded(c.Pos) {
			return false // superseded (e.g. reloaded while generating)
		}
		s.applyChunk(c, true)
		if s.tick > bootGraceTicks {
			cost += s.cost.ChunkApply
		}
		s.ChunksApplied.Inc()
		return true
	}
	for i, c := range s.loadedFromStore {
		if !apply(c) {
			s.pool.Put(c)
		}
		s.loadedFromStore[i] = nil
	}
	s.loadedFromStore = s.loadedFromStore[:0]
	s.drainBuf = s.terrain.DrainAppend(s.drainBuf[:0])
	for i, c := range s.drainBuf {
		applied := apply(c)
		if s.store != nil && s.owned(c.Pos) {
			// Persist freshly generated terrain — superseded chunks
			// included, as before: their generation still happened and the
			// stored bytes are identical.
			s.noteStore(c.Pos)
			s.storeBatch = append(s.storeBatch, c)
			if !applied {
				s.recycleBatch = append(s.recycleBatch, c)
			}
		} else if !applied {
			s.pool.Put(c)
		}
		s.drainBuf[i] = nil
	}
	return cost
}

// applyChunk installs a chunk and resumes any halted constructs in it.
func (s *Server) applyChunk(c *world.Chunk, countResume bool) {
	s.world.AddChunk(c)
	delete(s.requested, c.Pos)
	s.newlyLoaded = append(s.newlyLoaded, c.Pos)
	if hs := s.halted[c.Pos]; len(hs) > 0 && countResume {
		delete(s.halted, c.Pos)
		for _, h := range hs {
			s.SpawnConstruct(h.construct, h.anchor)
			s.ConstructsResumed.Inc()
		}
	}
}

// sendCompactMin is the consumed-prefix length at which a send queue is
// compacted in place (once the prefix is also at least half the queue).
const sendCompactMin = 64

// drainSendQueues serialises queued chunks to clients, a few per player per
// tick, and returns the work cost. The queue is a head-index ring over one
// backing array: popping advances sendHead instead of re-slicing, which
// would pin the consumed prefix for the array's lifetime, and the array is
// reused once drained (or compacted when the dead prefix dominates).
func (s *Server) drainSendQueues() time.Duration {
	var cost time.Duration
	for _, id := range s.playerOrder {
		p := s.players[id]
		sent := 0
		for p.sendHead < len(p.sendQueue) && sent < s.cfg.MaxChunkSendsPerTick {
			cp := p.sendQueue[p.sendHead]
			p.sendHead++
			if !s.world.Loaded(cp) {
				continue // unloaded before we could send it
			}
			cost += s.cost.ChunkSend
			p.ChunksReceived++
			s.ChunksSent.Inc()
			sent++
		}
		switch {
		case p.sendHead == len(p.sendQueue):
			p.sendQueue = p.sendQueue[:0]
			p.sendHead = 0
		case p.sendHead >= sendCompactMin && p.sendHead*2 >= len(p.sendQueue):
			n := copy(p.sendQueue, p.sendQueue[p.sendHead:])
			p.sendQueue = p.sendQueue[:n]
			p.sendHead = 0
		}
	}
	return cost
}

// unloadFarChunks persists and evicts chunks far outside every player's
// view distance, halting embedded constructs (§II-A).
func (s *Server) unloadFarChunks() {
	if len(s.players) == 0 {
		return
	}
	limit := s.cfg.ViewDistance + unloadMargin
	far := s.unloadFar[:0]
	s.unloadAll = s.world.LoadedChunksAppend(s.unloadAll[:0])
	for _, cp := range s.unloadAll {
		near := false
		for _, id := range s.playerOrder {
			if cp.DistanceBlocks(s.players[id].Pos()) <= limit {
				near = true
				break
			}
		}
		if !near {
			far = append(far, cp)
		}
	}
	s.unloadFar = far
	slices.SortFunc(far, func(a, b world.ChunkPos) int {
		if a.X != b.X {
			return a.X - b.X
		}
		return a.Z - b.Z
	})
	for _, cp := range far {
		// Halt constructs anchored in this chunk.
		ids := s.unloadIDs[:0]
		for id, h := range s.anchors {
			if h.anchor.Chunk() == cp {
				ids = append(ids, id)
			}
		}
		s.unloadIDs = ids
		slices.Sort(ids)
		for _, id := range ids {
			h := s.anchors[id]
			s.halted[cp] = append(s.halted[cp], h)
			s.scs.Remove(id)
			delete(s.anchors, id)
			w, ch := h.construct.Size()
			for y := 0; y < ch; y++ {
				for x := 0; x < w; x++ {
					delete(s.footprint, h.anchor.Offset(x, 0, y))
				}
			}
		}
		c := s.world.RemoveChunk(cp)
		if s.store != nil && c != nil && s.owned(cp) {
			// The write joins the tick's grouped store commit; the chunk is
			// recycled inside that same commit, after its Store call.
			s.noteStore(cp)
			s.storeBatch = append(s.storeBatch, c)
			s.recycleBatch = append(s.recycleBatch, c)
		} else {
			// No pending write references the chunk: recycle it directly.
			s.pool.Put(c)
		}
		// Drop client knowledge so re-approach resends, and invalidate
		// the demand cursor of any player whose cached rect held the
		// chunk — that restores the clean-cursor invariant (every rect
		// chunk loaded-or-requested) the incremental scan relies on.
		for _, p := range s.players {
			delete(p.known, cp)
			if p.demandValid && p.demandRect.Contains(cp) {
				p.demandValid = false
			}
		}
	}
}

// MinViewMargin returns the smallest distance (over players) from an
// avatar to the closest missing chunk within its view range, the QoS
// metric of Fig. 10. With no players or no missing terrain it returns the
// configured view distance.
func (s *Server) MinViewMargin() int {
	min := s.cfg.ViewDistance
	for _, id := range s.playerOrder {
		p := s.players[id]
		pos := p.Pos()
		r := world.ChunkRectWithin(pos, s.cfg.ViewDistance)
		for cx := r.Min.X; cx <= r.Max.X; cx++ {
			for cz := r.Min.Z; cz <= r.Max.Z; cz++ {
				cp := world.ChunkPos{X: cx, Z: cz}
				if s.world.Loaded(cp) {
					continue
				}
				if d := cp.DistanceBlocks(pos); d < min {
					min = d
				}
			}
		}
	}
	return min
}
