package main

import (
	"time"

	"servo/internal/core"
)

// layerMetrics assembles the per-layer metrics of a traced window: the
// span totals, the system's counter deltas d, host statistics and the CPU
// profile's module shares, followed by the workload-specific extra
// metrics. It also checks that no span total exceeds what its window
// allows and that the module shares sum to 1.
func layerMetrics(sys *core.System, t *tracer, d counters, host *hostStats, wall time.Duration,
	extra []metric, res *result) []metric {
	res.check(t.profErr == nil, "cpu profile: %v", t.profErr)
	shares := t.shares
	window := time.Duration(t.win.until.Load() - t.win.from.Load())
	for name, s := range t.all() {
		res.check(s.ns.Load() <= int64(window)*int64(s.par), "span %s: %v of host time in a %v window (%d-way)",
			name, time.Duration(s.ns.Load()), window, s.par)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	res.check(sum > 0.999999 && sum < 1.000001, "cpu shares sum to %v", sum)

	count := func(n int64) float64 { return float64(n) }
	dedupX := 0.0
	if d.tgInv > 0 {
		dedupX = float64(d.tgInv+d.deduped) / float64(d.tgInv)
	}
	blobP99 := 0.0
	if st := sys.Remote; st != nil {
		blobP99 = vms(st.ReadLatency.Percentile(99))
	}
	ms := []metric{
		{"store.observe.calls", count(t.observe.calls.Load()), "count"},
		{"store.observe.host_ns", count(t.observe.ns.Load()), "ns"},
		{"store.observe.avatars", count(t.observe.units.Load()), "count"},
		{"store.store.calls", count(t.store.calls.Load()), "count"},
		{"store.store.host_ns", count(t.store.ns.Load()), "ns"},
		{"store.load_many.calls", count(t.loadMany.calls.Load()), "count"},
		{"store.load_many.chunks", count(t.loadMany.units.Load()), "count"},
		{"store.load_many.host_ns", count(t.loadMany.ns.Load()), "ns"},
		{"store.player.calls", count(t.player.calls.Load()), "count"},
		{"store.player.host_ns", count(t.player.ns.Load()), "ns"},
		{"tcache.prefetch_issued", count(d.prefetch), "count"},
		{"blob.reads", count(d.reads), "count"},
		{"blob.writes", count(d.writes), "count"},
		{"blob.read_p99_vms", blobP99, "vms"},
		{"rstore.decode_failures", count(d.decodeFailures), "count"},
		{"tgen.invocations", count(d.tgInv), "count"},
		{"tgen.deduped", count(d.deduped), "count"},
		{"tgen.dedup_x", dedupX, "x"},
		{"tgen.failures", count(d.tgFail), "count"},
		{"tgen.decode_errors", count(d.tgDecode), "count"},
		{"tgen.bad_requests", count(d.badRequests), "count"},
		{"faas.cold_starts", count(d.coldStarts), "count"},
		{"faas.latency_p99_vms", faasLatencyP99(sys), "vms"},
		{"faas.billed_gbs", d.billedGBs, "GB-s"},
		{"specexec.remote_steps", count(d.remoteSteps), "count"},
		{"specexec.local_steps", count(d.localSteps), "count"},
		{"specexec.discards", count(d.discards), "count"},
		{"mve.ticks", count(d.ticks), "count"},
		{"mve.actions", count(d.actions), "count"},
		{"mve.chunks_applied", count(d.applied), "count"},
		{"mve.chunks_sent", count(d.sent), "count"},
		{"workload.actions.calls", count(t.actions.calls.Load()), "count"},
		{"workload.actions.host_ns", count(t.actions.ns.Load()), "ns"},
		{"netproto.write.calls", count(t.write.calls.Load()), "count"},
		{"netproto.write.host_ns", count(t.write.ns.Load()), "ns"},
		{"netproto.read.msgs", count(t.read.calls.Load()), "count"},
		{"netproto.read.host_ns", count(t.read.ns.Load()), "ns"},
		{"rtserve.locked.calls", count(t.lockHold.calls.Load()), "count"},
		{"rtserve.locked.wait_ns", count(t.lockWait.ns.Load()), "ns"},
		{"rtserve.locked.hold_ns", count(t.lockHold.ns.Load()), "ns"},
		{"trace.window_s", wall.Seconds(), "s"},
	}
	ms = append(ms, host.metrics()...)
	for _, m := range modules {
		ms = append(ms, metric{"cpu." + m + ".share", shares[m], "fraction"})
	}
	return append(ms, extra...)
}
