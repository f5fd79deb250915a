package main

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/rtserve"
	"servo/internal/world"
)

// epoch anchors the monotonic offsets that bound the traced window.
var epoch = time.Now()

func offset(t time.Time) int64 { return int64(t.Sub(epoch)) }

// traceWindow bounds the traced window, as offsets from epoch. Spans are
// clipped to it, so a call that started waiting before the window opened
// counts only its time inside.
type traceWindow struct{ from, until atomic.Int64 }

// span accumulates the calls into one seam and the host time spent inside
// them within the traced window. Seams on shard lanes run on several
// worker goroutines at once, so every field is atomic.
type span struct {
	calls atomic.Int64
	ns    atomic.Int64
	// units counts the seam's own work unit: avatars observed, chunks
	// loaded, actions returned, messages read.
	units atomic.Int64
	// par is how many goroutines can be inside the seam at once; the span
	// total may reach par times the window's wall time, never more.
	par int
	win *traceWindow
}

// add records one call that spent d of its [t0, now] interval inside the
// seam; calls that ended outside the window are not counted.
func (s *span) add(t0 time.Time, d time.Duration, units int) {
	from, until := s.win.from.Load(), s.win.until.Load()
	end := offset(time.Now())
	if end < from || end > until {
		return
	}
	if start := offset(t0); start < from {
		d -= time.Duration(from - start)
	}
	s.ns.Add(max(int64(d), 0))
	s.calls.Add(1)
	s.units.Add(int64(units))
}

func (s *span) done(t0 time.Time, units int) { s.add(t0, time.Since(t0), units) }

// tracer holds the spans and the CPU profile of one traced run. A nil
// *tracer disables every wrapper, so untraced runs execute the unwrapped
// program.
type tracer struct {
	observe, store, loadMany, player span
	actions                          span
	lockWait, lockHold               span
	write, read                      span

	win  traceWindow
	name string // CPU profile file name
	prof *cpuProfile
	// shares and profErr are the CPU profile's module shares, set by end.
	shares  map[string]float64
	profErr error
}

func newTracer(workers, clients int, name string) *tracer {
	t := &tracer{name: name}
	t.win.until.Store(math.MaxInt64)
	for _, s := range t.all() {
		s.par = 1
		s.win = &t.win
	}
	// Behaviours and client I/O run concurrently: shard lanes on the
	// worker pool, and one goroutine pair per TCP client.
	t.actions.par = max(workers, clients, 1)
	t.lockWait.par = max(clients, 1)
	t.write.par = max(clients, 1)
	t.read.par = max(clients, 1)
	return t
}

// begin opens the traced window: every span restarts from zero and the
// CPU profile starts.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.win.from.Store(offset(time.Now()))
	for _, s := range t.all() {
		s.calls.Store(0)
		s.ns.Store(0)
		s.units.Store(0)
	}
	t.prof = startCPUProfile()
}

// end closes the traced window and groups the CPU profile by module.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.win.until.Store(offset(time.Now()))
	t.shares, t.profErr = t.prof.stop(t.name)
}

// all names every span, for the wall-time check.
func (t *tracer) all() map[string]*span {
	return map[string]*span{
		"store.observe": &t.observe, "store.store": &t.store,
		"store.load_many": &t.loadMany, "store.player": &t.player,
		"workload.actions":    &t.actions,
		"rtserve.locked.wait": &t.lockWait, "rtserve.locked.hold": &t.lockHold,
		"netproto.write": &t.write, "netproto.read": &t.read,
	}
}

// --- Store seam (core.Config.WrapStore) --------------------------------------

// spanStore times the whole storage stack behind mve.ChunkStore: rstore,
// tcache and the blob store, plus the synchronous chunk encode in Store.
// Its optional seams are filled only when the wrapped store has them, and
// wrapStore exposes exactly those, because mve branches on each one.
type spanStore struct {
	inner  mve.ChunkStore
	t      *tracer
	batch  mve.BatchingChunkStore
	sync   mve.SyncingChunkStore
	obs    mve.AvatarObserver
	player mve.PlayerStore
}

func (s *spanStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	t0 := time.Now()
	s.inner.Load(pos, cb)
	s.t.loadMany.done(t0, 1)
}

func (s *spanStore) Store(c *world.Chunk) {
	t0 := time.Now()
	s.inner.Store(c)
	s.t.store.done(t0, 1)
}

type batchSeam struct{ s *spanStore }

func (b batchSeam) LoadMany(pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	t0 := time.Now()
	b.s.batch.LoadMany(pos, cb)
	b.s.t.loadMany.done(t0, len(pos))
}

type syncSeam struct{ s *spanStore }

func (y syncSeam) StoreThen(c *world.Chunk, done func()) {
	t0 := time.Now()
	y.s.sync.StoreThen(c, done)
	y.s.t.store.done(t0, 1)
}

type obsSeam struct{ s *spanStore }

func (o obsSeam) ObserveAvatars(positions []world.BlockPos, viewDistance int) {
	t0 := time.Now()
	o.s.obs.ObserveAvatars(positions, viewDistance)
	o.s.t.observe.done(t0, len(positions))
}

type playerSeam struct{ s *spanStore }

func (p playerSeam) SavePlayer(name string, data []byte) {
	t0 := time.Now()
	p.s.player.SavePlayer(name, data)
	p.s.t.player.done(t0, 1)
}

func (p playerSeam) LoadPlayer(name string, cb func([]byte, bool)) {
	t0 := time.Now()
	p.s.player.LoadPlayer(name, cb)
	p.s.t.player.done(t0, 1)
}

// Optional-seam bits, one per interface mve type-asserts on a store.
const (
	hasBatch = 1 << iota
	hasSync
	hasObs
	hasPlayer
)

// seamsOf reports which optional store interfaces v implements.
func seamsOf(v any) int {
	m := 0
	if _, ok := v.(mve.BatchingChunkStore); ok {
		m |= hasBatch
	}
	if _, ok := v.(mve.SyncingChunkStore); ok {
		m |= hasSync
	}
	if _, ok := v.(mve.AvatarObserver); ok {
		m |= hasObs
	}
	if _, ok := v.(mve.PlayerStore); ok {
		m |= hasPlayer
	}
	return m
}

// wrapStore returns inner timed by t, exposing exactly inner's optional
// interfaces. A wrapper that dropped one would run a different program:
// without StoreThen, say, ownership migrations stop waiting for their
// flush.
func (t *tracer) wrapStore(inner mve.ChunkStore) mve.ChunkStore {
	s := &spanStore{inner: inner, t: t}
	s.batch, _ = inner.(mve.BatchingChunkStore)
	s.sync, _ = inner.(mve.SyncingChunkStore)
	s.obs, _ = inner.(mve.AvatarObserver)
	s.player, _ = inner.(mve.PlayerStore)
	b, y, o, p := batchSeam{s}, syncSeam{s}, obsSeam{s}, playerSeam{s}
	switch seamsOf(inner) {
	case 0:
		return s
	case hasBatch:
		return struct {
			*spanStore
			batchSeam
		}{s, b}
	case hasSync:
		return struct {
			*spanStore
			syncSeam
		}{s, y}
	case hasBatch | hasSync:
		return struct {
			*spanStore
			batchSeam
			syncSeam
		}{s, b, y}
	case hasObs:
		return struct {
			*spanStore
			obsSeam
		}{s, o}
	case hasBatch | hasObs:
		return struct {
			*spanStore
			batchSeam
			obsSeam
		}{s, b, o}
	case hasSync | hasObs:
		return struct {
			*spanStore
			syncSeam
			obsSeam
		}{s, y, o}
	case hasBatch | hasSync | hasObs:
		return struct {
			*spanStore
			batchSeam
			syncSeam
			obsSeam
		}{s, b, y, o}
	case hasPlayer:
		return struct {
			*spanStore
			playerSeam
		}{s, p}
	case hasBatch | hasPlayer:
		return struct {
			*spanStore
			batchSeam
			playerSeam
		}{s, b, p}
	case hasSync | hasPlayer:
		return struct {
			*spanStore
			syncSeam
			playerSeam
		}{s, y, p}
	case hasBatch | hasSync | hasPlayer:
		return struct {
			*spanStore
			batchSeam
			syncSeam
			playerSeam
		}{s, b, y, p}
	case hasObs | hasPlayer:
		return struct {
			*spanStore
			obsSeam
			playerSeam
		}{s, o, p}
	case hasBatch | hasObs | hasPlayer:
		return struct {
			*spanStore
			batchSeam
			obsSeam
			playerSeam
		}{s, b, o, p}
	case hasSync | hasObs | hasPlayer:
		return struct {
			*spanStore
			syncSeam
			obsSeam
			playerSeam
		}{s, y, o, p}
	default:
		return struct {
			*spanStore
			batchSeam
			syncSeam
			obsSeam
			playerSeam
		}{s, b, y, o, p}
	}
}

// --- Behaviour seam (mve.Behavior) -------------------------------------------

// spanBehavior times one player's workload generator.
type spanBehavior struct {
	inner mve.Behavior
	sp    *span
}

func (b spanBehavior) Actions(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action {
	t0 := time.Now()
	acts := b.inner.Actions(r, p, s)
	b.sp.done(t0, len(acts))
	return acts
}

// behavior returns inner timed by t; a nil tracer returns inner itself.
func (t *tracer) behavior(inner mve.Behavior) mve.Behavior {
	if t == nil || inner == nil {
		return inner
	}
	return spanBehavior{inner: inner, sp: &t.actions}
}

// --- Game-lock seam (rtserve.Instance) ---------------------------------------

// spanInstance splits rtserve's Locked calls into the wait for the
// game-loop lock and the time spent holding it.
type spanInstance struct {
	rtserve.Instance
	t *tracer
}

func (i spanInstance) Locked(fn func()) {
	t0 := time.Now()
	i.Instance.Locked(func() {
		t1 := time.Now()
		i.t.lockWait.done(t0, 0)
		fn()
		i.t.lockHold.done(t1, 0)
	})
}

// instance returns inner timed by t; a nil tracer returns inner itself.
func (t *tracer) instance(inner rtserve.Instance) rtserve.Instance {
	if t == nil {
		return inner
	}
	return spanInstance{Instance: inner, t: t}
}

// --- Wire seam (netproto, client side) ---------------------------------------

// wireConn is a client connection: netproto.Write and Reader.Next timed
// by t (when non-nil). The read span excludes time blocked in the socket,
// so it measures framing and decoding, not waiting for the server.
type wireConn struct {
	conn    net.Conn
	r       *netproto.Reader
	t       *tracer
	blocked atomic.Int64 // ns spent inside conn.Read, read-loop only
	mu      sync.Mutex   // one writer at a time
}

func newWireConn(conn net.Conn, t *tracer) *wireConn {
	w := &wireConn{conn: conn, t: t}
	if t == nil {
		w.r = netproto.NewReader(conn)
	} else {
		w.r = netproto.NewReader(blockTimer{w})
	}
	return w
}

// blockTimer measures how long the reader waits on the socket.
type blockTimer struct{ w *wireConn }

func (b blockTimer) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.w.conn.Read(p)
	b.w.blocked.Add(int64(time.Since(t0)))
	return n, err
}

func (w *wireConn) write(m netproto.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t == nil {
		return netproto.Write(w.conn, m)
	}
	t0 := time.Now()
	err := netproto.Write(w.conn, m)
	w.t.write.done(t0, 1)
	return err
}

func (w *wireConn) next() (netproto.Message, error) {
	if w.t == nil {
		return w.r.Next()
	}
	b0 := w.blocked.Load()
	t0 := time.Now()
	m, err := w.r.Next()
	w.t.read.add(t0, time.Since(t0)-time.Duration(w.blocked.Load()-b0), 1)
	return m, err
}
