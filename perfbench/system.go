package main

import (
	"runtime"
	rtm "runtime/metrics"
	"time"

	"servo/internal/core"
	"servo/internal/metrics"
)

// qosBudget is the paper's tick-time QoS bound.
const qosBudget = 50 * time.Millisecond

// counters is a snapshot of a system's cumulative counters; the measured
// window reports the difference of two snapshots.
type counters struct {
	ticks, actions, applied, sent        int64
	prefetch, reads, writes, storeFaults int64
	handoffs                             int64
	tgInv, deduped, tgFail, tgDecode     int64
	badRequests, decodeFailures          int64
	scInv, coldStarts, faasFaults        int64
	remoteSteps, localSteps, discards    int64
	billedGBs                            float64
}

// snapshot reads sys's counters. Under the real-time clock the caller
// holds the game-loop lock.
func snapshot(sys *core.System) counters {
	var c counters
	for _, sh := range sys.Shards {
		srv := sh.Server
		c.ticks += int64(srv.TickDurations.Len())
		c.actions += srv.ActionCount.Value()
		c.applied += srv.ChunksApplied.Value()
		c.sent += srv.ChunksSent.Value()
		if ca := sh.Cache; ca != nil {
			c.prefetch += ca.PrefetchIssued.Value()
		}
		if rs := sh.RStore; rs != nil {
			c.decodeFailures += int64(rs.DecodeFailures)
		}
		if tb := sh.TGBackend; tb != nil {
			c.deduped += int64(tb.GenDeduped)
			c.tgFail += int64(tb.Failures)
			c.tgDecode += int64(tb.DecodeErrors)
		}
		if m := sh.SpecExec; m != nil {
			st := m.Snapshot()
			c.remoteSteps += st.RemoteSteps + st.ReplaySteps
			c.localSteps += st.LocalSteps
			c.discards += m.Discards.Value()
		}
	}
	if st := sys.Remote; st != nil {
		c.reads = st.Reads.Value()
		c.writes = st.Writes.Value()
		c.storeFaults = st.FaultsInjected.Value()
	}
	if hs := sys.TGHandlerStats; hs != nil {
		c.badRequests = int64(hs.BadRequests)
	}
	if f := sys.TGFn; f != nil {
		c.tgInv = int64(f.Invocations.Count())
		c.coldStarts += f.ColdStarts.Value()
		c.faasFaults += f.FaultsInjected.Value()
		c.billedGBs += f.BilledGBs
	}
	if f := sys.SCFn; f != nil {
		c.scInv = int64(f.Invocations.Count())
		c.coldStarts += f.ColdStarts.Value()
		c.faasFaults += f.FaultsInjected.Value()
		c.billedGBs += f.BilledGBs
	}
	if cl := sys.Cluster; cl != nil {
		c.handoffs = cl.Handoffs.Value()
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		ticks: c.ticks - b.ticks, actions: c.actions - b.actions,
		applied: c.applied - b.applied, sent: c.sent - b.sent,
		prefetch: c.prefetch - b.prefetch, reads: c.reads - b.reads,
		writes: c.writes - b.writes, storeFaults: c.storeFaults - b.storeFaults,
		handoffs: c.handoffs - b.handoffs,
		tgInv:    c.tgInv - b.tgInv, deduped: c.deduped - b.deduped,
		tgFail: c.tgFail - b.tgFail, tgDecode: c.tgDecode - b.tgDecode,
		badRequests: c.badRequests - b.badRequests, decodeFailures: c.decodeFailures - b.decodeFailures,
		scInv: c.scInv - b.scInv, coldStarts: c.coldStarts - b.coldStarts,
		faasFaults:  c.faasFaults - b.faasFaults,
		remoteSteps: c.remoteSteps - b.remoteSteps, localSteps: c.localSteps - b.localSteps,
		discards:  c.discards - b.discards,
		billedGBs: c.billedGBs - b.billedGBs,
	}
}

// resetSamples starts every latency sample afresh, so percentiles cover
// the measured window only (warm-up and boot excluded).
func resetSamples(sys *core.System) {
	for _, sh := range sys.Shards {
		sh.Server.TickDurations = metrics.NewSample(4096)
	}
	if st := sys.Remote; st != nil {
		st.ReadLatency = metrics.Sample{}
	}
	if f := sys.TGFn; f != nil {
		f.Latency = metrics.Sample{}
	}
	if f := sys.SCFn; f != nil {
		f.Latency = metrics.Sample{}
	}
	if cl := sys.Cluster; cl != nil {
		cl.HandoffLatency = metrics.NewSample(4096)
	}
}

// ticks pools every shard's modelled tick durations since resetSamples.
func ticks(sys *core.System) *metrics.Sample {
	s := &metrics.Sample{}
	for _, sh := range sys.Shards {
		s.AddAll(sh.Server.TickDurations.Values())
	}
	return s
}

// vms converts a virtual duration to virtual milliseconds.
func vms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadImbalance is the max/mean of per-shard mean tick durations over
// the virtual window [from, to] (1 for a single shard).
func loadImbalance(sys *core.System, from, to time.Duration) float64 {
	var loads []float64
	for _, sh := range sys.Shards {
		s := &metrics.Sample{}
		s.AddAll(sh.Server.TickSeries.ValuesBetween(from, to))
		if s.Len() > 0 {
			loads = append(loads, float64(s.Mean()))
		}
	}
	return metrics.ImbalanceRatio(loads)
}

// faasLatencyP99 pools both functions' invocation latencies.
func faasLatencyP99(sys *core.System) float64 {
	s := &metrics.Sample{}
	if f := sys.TGFn; f != nil {
		s.AddAll(f.Latency.Values())
	}
	if f := sys.SCFn; f != nil {
		s.AddAll(f.Latency.Values())
	}
	return vms(s.Percentile(99))
}

// --- host ---------------------------------------------------------------------

// liveHeapMB returns the heap that was live at the end of the last GC
// cycle, in MB.
func liveHeapMB() float64 {
	s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
	rtm.Read(s)
	if s[0].Value.Kind() != rtm.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / 1e6
}

// hostStats brackets a measured window with two MemStats reads.
type hostStats struct{ start, end runtime.MemStats }

func (h *hostStats) begin() { runtime.ReadMemStats(&h.start) }
func (h *hostStats) stop()  { runtime.ReadMemStats(&h.end) }

func (h *hostStats) metrics() []metric {
	return []metric{
		{"host.alloc_mb", float64(h.end.TotalAlloc-h.start.TotalAlloc) / 1e6, "MB"},
		{"host.gc_cycles", float64(h.end.NumGC - h.start.NumGC), "count"},
		{"host.gc_pause_ms", float64(h.end.PauseTotalNs-h.start.PauseTotalNs) / 1e6, "ms"},
	}
}
