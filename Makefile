# CI entry points for the Servo reproduction. `make ci` is the gate the
# scenario harness and tier-1 tests run behind.

GO ?= go

.PHONY: ci vet fmtcheck build test race validate sim bench benchsmoke benchjson benchdiff replaygate bordergate scalegate

ci: vet fmtcheck build race validate replaygate bordergate scalegate benchsmoke benchdiff

vet:
	$(GO) vet ./...

# fmtcheck fails if any file needs gofmt.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every package under the race detector, uncached: the lane
# scheduler runs same-timestamp shard ticks on a worker pool, and the
# control plane, visibility bus and real-time sessions juggle closures
# across clocks, so all of them must stay data-race-free as they grow.
# -p 1 serialises the packages and the timeout is raised: the scenario
# package's full bundled sweep is slow under the race detector, and
# contention with other raced packages would push it past the default
# 10m per-package budget.
race:
	$(GO) test -race -count=1 -p 1 -timeout 30m ./...

# validate parses and validates every bundled scenario without running it.
validate:
	$(GO) run ./cmd/servo-sim validate all

# replaygate runs every bundled scenario twice, on a worker pool of 1 and
# of 4, and fails on any report byte difference: the determinism and
# pool-size-independence contract, enforced over the whole suite rather
# than the sampled scenarios the unit tests replay.
replaygate:
	$(GO) run ./cmd/servo-sim replay all

# bordergate runs the border-patrol scenario with assertions on: the
# cross-shard visibility contract — zero visibility-gap ticks while
# fleets pace across a grid tile seam.
bordergate:
	$(GO) run ./cmd/servo-sim run border-patrol

# scalegate runs the elastic-scaling scenarios with assertions on: the
# diurnal cycle must scale 2 -> 8 -> 2 with zero lost players, and the
# crash-looping shard must be quarantined while the cluster keeps
# serving. (Their workers-1-vs-4 byte identity rides through
# replaygate.)
scalegate:
	$(GO) run ./cmd/servo-sim run daily-cycle crash-loop-quarantine

# sim executes every bundled scenario and fails on any assertion failure.
sim:
	$(GO) run ./cmd/servo-sim run all

# bench regenerates the paper's tables and figures at bench scale.
bench:
	$(GO) run ./cmd/servo-bench -exp all

# benchsmoke runs every benchmark in the module exactly once in short
# mode: a fast compile-and-execute gate over the figure pipelines and the
# per-package layer benchmarks, not a measurement.
benchsmoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# benchjson records the performance trajectory: the headline benchmark
# suite (tick latency, handoff p99, digest encode, visibility scan,
# scenario throughput) written as a schema'd BENCH_$(PR).json artifact,
# checked in with the PR that changed the numbers. PR must be given
# (`make benchjson PR=<n>`): a default would silently overwrite an
# existing artifact.
benchjson:
	@if [ -z "$(PR)" ]; then echo "benchjson: set PR, e.g. make benchjson PR=<n>"; exit 1; fi
	$(GO) run ./cmd/servo-bench -format json -pr $(PR) -out BENCH_$(PR).json

# benchdiff is the regression gate: re-run the suite and fail when any
# gated headline metric is more than 20% worse than the newest
# checked-in BENCH_*.json.
benchdiff:
	$(GO) run ./cmd/servo-bench -diff latest
