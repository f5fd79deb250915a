package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"servo"
	"servo/internal/netproto"
	"servo/internal/rtserve"
	"servo/internal/workload"
	"servo/internal/world"
)

const (
	// tcpPlayers random-behaviour players run inside the instance.
	tcpPlayers = 100
	// tcpClients TCP clients drive the closed ping loop.
	tcpClients = 2
	// tcpSetupRounds is how many times an untraced run builds the
	// instance and connects its clients; setup_s is the median.
	tcpSetupRounds = 15
	// tcpWarmup is a fixed sleep before measuring, so the boot terrain
	// starts streaming; it is not part of setup_s.
	tcpWarmup = time.Second
	// moveEvery is the clients' star-walk cadence.
	moveEvery = 100 * time.Millisecond
)

// tcpEnv is one running real-time instance served over loopback TCP.
type tcpEnv struct {
	inst    *servo.Instance
	srv     *rtserve.Server
	ln      net.Listener
	served  chan struct{}
	clients []*tcpClient
}

// tcpClient is one protocol client: a read loop that answers the ping
// loop and checks every state update and chunk payload.
type tcpClient struct {
	w     *wireConn
	pongs chan uint64
	done  chan struct{} // closed when the read loop ends
	// closing marks a deliberate shutdown, so the read loop's final
	// error is not a connection failure.
	closing atomic.Bool

	mu         sync.Mutex
	measureAt  time.Time // zero until the measured window opens
	lastUpdate time.Time
	updates    int
	gaps       []float64 // ms between state updates inside the window
	chunks     int
	chunkBytes int64
	decodeErrs int
	connErr    error
	scratch    world.Chunk
}

// startTCP builds the instance, its players and the TCP server, and
// connects the clients. t (may be nil) traces every seam.
func startTCP(seed int64, t *tracer) (*tcpEnv, error) {
	e := &tcpEnv{served: make(chan struct{})}
	e.inst = servo.NewInstance(servo.Config{
		Seed: seed, WorldType: "default", Servo: servo.AllServerless(), RealTime: true,
	})
	for i := 0; i < tcpPlayers; i++ {
		e.inst.ConnectBehavior(fmt.Sprintf("bot-%d", i), t.behavior(workload.ForName("R")))
	}
	e.srv = rtserve.NewServer(t.instance(e.inst), rtserve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.ln = ln
	go func() {
		// Serve returns once close shuts the listener; that error is
		// the normal end.
		e.srv.Serve(ln)
		close(e.served)
	}()
	for i := 0; i < tcpClients; i++ {
		c, err := dial(ln.Addr().String(), fmt.Sprintf("client-%d", i), t)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

func dial(addr, name string, t *tracer) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{w: newWireConn(conn, t), pongs: make(chan uint64, 1), done: make(chan struct{})}
	if err := c.w.write(netproto.Message{Type: netproto.MsgJoin, Name: name}); err != nil {
		conn.Close()
		return nil, err
	}
	if m, err := c.w.next(); err != nil || m.Type != netproto.MsgWelcome {
		conn.Close()
		return nil, fmt.Errorf("no welcome: %v %v", m.Type, err)
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpClient) readLoop() {
	defer close(c.done)
	for {
		m, err := c.w.next()
		if err != nil {
			if !c.closing.Load() {
				c.mu.Lock()
				c.connErr = err
				c.mu.Unlock()
			}
			return
		}
		switch m.Type {
		case netproto.MsgPong:
			c.pongs <- m.Nonce
		case netproto.MsgStateUpdate:
			now := time.Now()
			c.mu.Lock()
			if !c.measureAt.IsZero() {
				c.updates++
				if c.lastUpdate.After(c.measureAt) {
					c.gaps = append(c.gaps, float64(now.Sub(c.lastUpdate))/1e6)
				}
			}
			c.lastUpdate = now
			c.mu.Unlock()
		case netproto.MsgChunkData:
			err := world.DecodeChunkInto(&c.scratch, m.ChunkData)
			c.mu.Lock()
			c.chunks++
			c.chunkBytes += int64(len(m.ChunkData))
			if err != nil {
				c.decodeErrs++
			}
			c.mu.Unlock()
		}
	}
}

// pingStats is one client's closed-loop record.
type pingStats struct {
	rtts []float64 // µs
	// marks indexes the first RTT of every measured second after the
	// first.
	marks                []int
	badNonce, unanswered int
	writeErrs            int
	moves                int
}

// pingLoop sends a Ping, waits for the matching Pong, and repeats until
// deadline; every moveEvery it also sends a star-walk Move along the
// client's own direction.
func (c *tcpClient) pingLoop(idx int, deadline time.Time) pingStats {
	var st pingStats
	st.rtts = make([]float64, 0, 1<<20)
	angle := 2 * math.Pi * float64(idx) / tcpClients
	dx, dz := 10000*math.Cos(angle), 10000*math.Sin(angle)
	lastMove := time.Time{}
	nextMark := time.Now().Add(time.Second)
	for nonce := uint64(1); ; nonce++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return st
		}
		if !t0.Before(nextMark) {
			st.marks = append(st.marks, len(st.rtts))
			nextMark = nextMark.Add(time.Second)
		}
		if t0.Sub(lastMove) >= moveEvery {
			lastMove = t0
			st.moves++
			if c.w.write(netproto.Message{Type: netproto.MsgMove, DestX: dx, DestZ: dz, Speed: 8}) != nil {
				st.writeErrs++
				return st
			}
			t0 = time.Now()
		}
		if c.w.write(netproto.Message{Type: netproto.MsgPing, Nonce: nonce}) != nil {
			st.writeErrs++
			return st
		}
		select {
		case got := <-c.pongs:
			st.rtts = append(st.rtts, float64(time.Since(t0))/1e3)
			if got != nonce {
				st.badNonce++
			}
		case <-c.done:
			st.unanswered++
			return st
		}
	}
}

// close shuts the clients, the server and the instance down, and waits
// for every goroutine they started.
func (e *tcpEnv) close() {
	for _, c := range e.clients {
		c.closing.Store(true)
		c.w.conn.Close()
		<-c.done
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.ln != nil {
		e.ln.Close()
		<-e.served
	}
	e.inst.Stop()
}

// tcpWindow is what one measured live-tcp window recorded.
type tcpWindow struct {
	wall time.Duration
	rtts dist
	// secP50 and secP95 are RTT percentiles of every client's every
	// measured second, in µs.
	secP50, secP95 []float64
	gaps           dist
	peakHeapMB     float64
	ticks          dist
	delta          counters
	host           hostStats
	ping           []pingStats
	updates        []int
	chunks         int
	chunkBytes     int64
	decodeErrs     int
	connErrs       []error
}

// measure runs the closed ping loop on every client for d.
func (e *tcpEnv) measure(d time.Duration, t *tracer) *tcpWindow {
	w := &tcpWindow{}
	sys := e.inst.System()
	var base counters
	e.inst.Locked(func() {
		resetSamples(sys)
		base = snapshot(sys)
	})
	runtime.GC()
	w.host.begin()
	t.begin()
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range e.clients {
		c.mu.Lock()
		c.measureAt = start
		c.mu.Unlock()
	}
	// The watchdog ends a run whose server stopped answering: closing
	// the connections ends the read loops, which releases the pingers.
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-stopWatch:
		case <-time.After(d + 10*time.Second):
			for _, c := range e.clients {
				c.w.conn.Close()
			}
		}
	}()
	// Sample the live heap while the clients run.
	stopHeap := make(chan struct{})
	heapDone := make(chan float64)
	go func() {
		peak := liveHeapMB()
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stopHeap:
				heapDone <- max(peak, liveHeapMB())
				return
			case <-tk.C:
				peak = max(peak, liveHeapMB())
			}
		}
	}()
	w.ping = make([]pingStats, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ping[i] = c.pingLoop(i, deadline)
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	t.end()
	close(stopHeap)
	w.peakHeapMB = <-heapDone
	close(stopWatch)
	<-watchDone
	w.host.stop()
	runtime.GC()
	w.peakHeapMB = max(w.peakHeapMB, liveHeapMB())
	e.inst.Locked(func() {
		w.delta = snapshot(sys).minus(base)
		for _, v := range ticks(sys).Values() {
			w.ticks = append(w.ticks, vms(v))
		}
	})
	w.ticks = sorted(w.ticks)
	var rtts, gaps []float64
	for _, p := range w.ping {
		rtts = append(rtts, p.rtts...)
		from := 0
		for _, to := range append(p.marks, len(p.rtts)) {
			sec := sorted(p.rtts[from:to])
			from = to
			if len(sec) >= 1000 {
				w.secP50 = append(w.secP50, sec.pct(50))
				w.secP95 = append(w.secP95, sec.pct(95))
			}
		}
	}
	for _, c := range e.clients {
		c.mu.Lock()
		gaps = append(gaps, c.gaps...)
		w.updates = append(w.updates, c.updates)
		w.chunks += c.chunks
		w.chunkBytes += c.chunkBytes
		w.decodeErrs += c.decodeErrs
		if c.connErr != nil {
			w.connErrs = append(w.connErrs, c.connErr)
		}
		c.mu.Unlock()
	}
	w.rtts, w.gaps = sorted(rtts), sorted(gaps)
	return w
}

// gate checks the window's outputs: every Ping answered by a Pong with
// its nonce, every chunk payload decoded, state updates on every client,
// no connection error.
func (w *tcpWindow) gate(res *result) {
	var pings, bad, unanswered, writeErrs, moves int64
	for _, p := range w.ping {
		pings += int64(len(p.rtts) + p.unanswered)
		bad += int64(p.badNonce)
		unanswered += int64(p.unanswered)
		writeErrs += int64(p.writeErrs)
		moves += int64(p.moves)
	}
	res.count("pings", pings, bad+unanswered)
	res.count("client writes", pings+moves, writeErrs)
	res.count("chunk payload decodes", int64(w.chunks), int64(w.decodeErrs))
	for i, n := range w.updates {
		res.check(n > 0, "live-tcp: client %d received no state update", i)
	}
	res.check(w.chunks > 0, "live-tcp: no chunk streamed to the clients")
	res.check(len(w.connErrs) == 0, "live-tcp: connection errors: %v", errors.Join(w.connErrs...))
}

func (w *tcpWindow) pongsPerSec() float64 { return float64(len(w.rtts)) / w.wall.Seconds() }

// runLiveTCP runs the live-tcp workload as o asks.
func runLiveTCP(o opts) *result {
	res := &result{}
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		var setups []float64
		var e *tcpEnv
		for i := 0; i < tcpSetupRounds; i++ {
			if e != nil {
				e.close()
				e = nil
				runtime.GC()
			}
			t0 := time.Now()
			env, err := startTCP(o.seed, nil)
			if err != nil {
				res.check(false, "live-tcp setup: %v", err)
				return res
			}
			setups = append(setups, time.Since(t0).Seconds())
			e = env
		}
		time.Sleep(tcpWarmup)
		win := e.measure(d, nil)
		e.close()
		win.gate(res)
		res.e2e = []metric{
			{"throughput_per_s", win.pongsPerSec(), "1/s"},
			{"latency_ms_p50", median(win.secP50) / 1e3, "ms"},
			{"latency_ms_p95", median(win.secP95) / 1e3, "ms"},
			{"setup_s", median(setups), "s"},
			{"peak_heap_mb", win.peakHeapMB, "MB"},
			{"tick_mean_vms", mean(win.ticks), "vms"},
		}
		res.printf("tcp_pongs_per_s %.1f 1/s (%d pongs in %.3f s)", win.pongsPerSec(), len(win.rtts), win.wall.Seconds())
		res.printf("%s", win.rtts.describe("tcp_rtt_us", "µs"))
		res.printf("tcp_rtt_us per client-second: median p50=%.4f median p95=%.4f µs (n=%d)",
			median(win.secP50), median(win.secP95), len(win.secP95))
		res.printf("%s", win.gaps.describe("tcp_update_gap_ms", "ms"))
		res.printf("setup_s %.4f s (median of %d: %v)", median(setups), len(setups), setups)
		res.printf("peak_heap_mb %.1f MB", win.peakHeapMB)
		res.printf("%s", win.ticks.describe("tick_vms", "virtual ms"))
		res.printf("tick_mean_vms %.3f; tick_p99_vms %.3f; over_budget_frac %.5f",
			mean(win.ticks), win.ticks.pct(99), overBudget(win.ticks))
		res.printf("chunks streamed %d (%.0f B mean); updates per client %v", win.chunks,
			float64(win.chunkBytes)/float64(max(win.chunks, 1)), win.updates)
		res.printf("ops_failed_frac %.6f (%d of %d)", res.failedFrac(), res.failed, res.attempted)
		return res
	}

	// Traced: an untraced reference run for the overhead ratio, then the
	// traced run. Real time does not replay, so there are no virtual
	// statistics to compare.
	ref, err := startTCP(o.seed, nil)
	if err != nil {
		res.check(false, "live-tcp setup: %v", err)
		return res
	}
	time.Sleep(tcpWarmup)
	refWin := ref.measure(d, nil)
	ref.close()
	refWin.gate(res)
	ref = nil
	runtime.GC()

	t := newTracer(0, tcpClients, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	e, err := startTCP(o.seed, t)
	if err != nil {
		res.check(false, "live-tcp setup: %v", err)
		return res
	}
	time.Sleep(tcpWarmup)
	win := e.measure(d, t)
	e.close()
	win.gate(res)
	sys := e.inst.System()
	extra := []metric{
		{"cluster.handoffs", 0, "count"},
		{"cluster.handoff_p99_vms", 0, "vms"},
		{"cluster.load_imbalance", 1, "x"},
		{"sim.work_span_x", 1, "x"},
		{"mve.tick_p99_vms", win.ticks.pct(99), "vms"},
		{"mve.over_budget_frac", overBudget(win.ticks), "fraction"},
		{"trace_overhead_x", refWin.pongsPerSec() / win.pongsPerSec(), "x"},
		{"netproto.chunk_bytes_mean", float64(win.chunkBytes) / float64(max(win.chunks, 1)), "B"},
		{"tcp.update_gap_ms_p90", win.gaps.pct(90), "ms"},
	}
	res.layer = layerMetrics(sys, t, win.delta, &win.host, win.wall, extra, res)
	res.layer = append(res.layer, metric{"ops_failed_frac", res.failedFrac(), "fraction"})
	res.printf("traced %.1f pongs/s, untraced %.1f", win.pongsPerSec(), refWin.pongsPerSec())
	return res
}
