// The parallel-execution determinism gate: the lane-batched scheduler's
// contract is that the observable event stream — and therefore every
// rendered report byte — is identical for every worker-pool size. This
// test runs the bundled sharded scenarios at Workers 1 and Workers 4 and
// fails on any report byte diff (text and CSV renderings both); `make
// replaygate` extends the same check to every bundled scenario.

package scenario

import (
	"testing"
)

// workersGateScenarios are the bundled scenarios the gate replays at
// both pool sizes: the sharded workloads, covering cross-shard handoff,
// visibility replication, and the serverless substrate under
// lane-parallel shard ticks, plus the saturated phase-locked cluster —
// overlong ticks re-snapping to the tick grid must reschedule
// identically whether the wave ran on one worker or four, and the
// elastic scenarios — the autoscaler's scale events, drains, and
// quarantine decisions are part of the replay surface too, and the
// generation storm — batched store loads, bounded generation dispatch,
// chunk decode, and cross-shard dedup adoption must commit in the same
// lane order at any pool size.
var workersGateScenarios = []string{
	"border-patrol", "sharded-stress", "saturated-lockstep",
	"daily-cycle", "crash-loop-quarantine", "gen-storm",
}

// renderAtWorkers runs one bundled scenario at the given pool size and
// returns the concatenated text + CSV renderings.
func renderAtWorkers(t *testing.T, name string, workers int) string {
	t.Helper()
	src, err := BundledSource(name)
	if err != nil {
		t.Fatalf("loading bundled scenario %q: %v", name, err)
	}
	spec, err := Parse(src)
	if err != nil {
		t.Fatalf("parsing %q: %v", name, err)
	}
	spec.Workers = workers
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatalf("%s at workers=%d: %v", name, workers, err)
	}
	if !rep.Pass {
		t.Fatalf("%s at workers=%d failed its assertions:\n%s", name, workers, rep.Render())
	}
	return rep.Render() + rep.RenderCSVRows()
}

// TestWorkersByteIdentity is the determinism gate: every report byte
// identical at -workers 1 and -workers 4.
func TestWorkersByteIdentity(t *testing.T) {
	for _, name := range workersGateScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			one := renderAtWorkers(t, name, 1)
			four := renderAtWorkers(t, name, 4)
			if one != four {
				t.Fatalf("%s diverges between workers=1 and workers=4:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", name, one, four)
			}
		})
	}
}
