# Convenience targets for the MineSweeper reproduction. `make help` lists them.

GO ?= go

.PHONY: all help build vet test race race-hot check bench bench-free bench-json bench-gate bench-all telemetry-overhead events-overhead governor-overhead governor-gate pause-gate fleet-gate flightrec-smoke figures examples clean

all: build vet test

help:
	@echo "MineSweeper reproduction targets:"
	@echo "  all        build + vet + test"
	@echo "  check      go vet (root and bench/) + go test ./... + race-hot + events-overhead + fleet-gate"
	@echo "  test       go test ./..."
	@echo "  race       go test -race ./... (slow; check is the quick gate)"
	@echo "  race-hot   race detector on sweep/shadow/core/mem/jemalloc only"
	@echo "  bench      sweep hot-path benchmarks (bulk scan, steady-state skip, markers, page scan)"
	@echo "  bench-free malloc/free hot-path benchmarks (fixed-iteration protocol)"
	@echo "  bench-json bench-free + sweep-release + fleet runs -> BENCH_free.json, BENCH_sweep.json, BENCH_fleet.json"
	@echo "  bench-gate gate: fresh MallocFree64 + SweepRelease medians within BENCH_GATE_RATIO of their BENCH_*.json"
	@echo "  bench-all  every benchmark in the repository"
	@echo "  telemetry-overhead  gate: telemetry-on malloc/free within 3% of telemetry-off"
	@echo "  events-overhead     gate: flight-recorder-attached malloc/free within 3% of detached"
	@echo "  flightrec-smoke     gate: a pressure run writes a flight dump msstat can render + convert"
	@echo "  governor-overhead   gate: governed malloc/free within 3% of ungoverned"
	@echo "  governor-gate       gate: governed peak RSS stays within budget+10% on the pressure ramp"
	@echo "  pause-gate          gate: p99.9 STW pause on pressure-mt under MS_PAUSE_BOUND_NS (default 2^19 ns)"
	@echo "  fleet-gate          gate: 256-tenant fleet under 75% budget holds peak RSS <= budget+10%, floors honoured"
	@echo "  figures    regenerate the paper figures (cmd/msbench)"
	@echo "  examples   run the example programs"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detector pass over the concurrent hot-path packages (sweeper workers,
# shadow markers, page scanning, the core sweep loop) — much faster than a
# full `make race` and the first thing to run after touching the sweep path.
race-hot:
	$(GO) test -race ./internal/sweep ./internal/shadow ./internal/core ./internal/quarantine ./internal/mem ./internal/jemalloc ./internal/telemetry ./internal/events ./internal/control ./internal/ring ./internal/workload ./internal/fleet

# The pre-merge gate: static checks, a vet pass over the benchmark (bench/ is
# its own module, so `./...` never compiles it, yet it builds against the
# core, telemetry and control APIs), the full test suite, the hot-path race
# pass, the events-overhead gate (the flight recorder is always-attachable,
# so its hot-path cost is a merge-blocking property like the race freedom of
# the paths it instruments), then the fleet gate (the federated governor's
# budget bound is likewise a merge-blocking property of the two-level
# control plane).
check: vet
	$(GO) -C bench vet ./...
	$(GO) test ./...
	$(MAKE) race-hot
	$(MAKE) events-overhead
	$(MAKE) fleet-gate

# One-command perf baseline for the sweep hot path: the bulk-scan vs per-word
# sweep comparison, the steady-state pass with and without the page skips,
# plus the shadow-marker and page-scan micro-benchmarks.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepMarkAll|BenchmarkMarkAllSteady|BenchmarkShadowMarker|BenchmarkScanPage' -benchmem -count=1 ./internal/sweep ./internal/shadow ./internal/mem

# Malloc/free hot-path benchmarks: the end-to-end MallocFree comparison
# (single-threaded and 4-way parallel, baseline vs MineSweeper) plus the
# lock-free page-map micro-benchmarks behind the free() fast path. The fixed
# iteration count matches the protocol recorded in EXPERIMENTS.md ("Free
# fast-path optimisation"): adaptive benchtime would run long enough to
# change quarantine pressure between variants.
bench-free:
	$(GO) test -run '^$$' -bench 'BenchmarkMallocFree64' -benchtime=300000x -benchmem -count=3 .
	$(GO) test -run '^$$' -bench 'BenchmarkRtree' -benchmem -count=3 ./internal/jemalloc

# Machine-readable benchmark snapshots: the malloc/free comparison and the
# post-sweep release path, 5 runs each, medians computed by cmd/benchjson.
# These are the files EXPERIMENTS.md medians are transcribed from.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkMallocFree64' -benchtime=300000x -count=5 . \
		| $(GO) run ./cmd/benchjson > BENCH_free.json
	$(GO) test -run '^$$' -bench 'BenchmarkSweepRelease' -count=5 ./internal/core \
		| $(GO) run ./cmd/benchjson > BENCH_sweep.json
	$(GO) test -run '^$$' -bench 'BenchmarkFleet64Tenants' -benchtime=50x -count=5 ./internal/fleet \
		| $(GO) run ./cmd/benchjson > BENCH_fleet.json

# Benchmark regression gate: re-run the malloc/free comparison at the recorded
# protocol and fail if any benchmark's fresh median exceeds its committed
# BENCH_free.json median by more than BENCH_GATE_RATIO. The default envelope
# is wide (1.5x) because the committed medians are window-scoped: on this
# shared-tenancy 1-CPU host, identical binaries drift ±25-30% between
# windows (EXPERIMENTS.md "Per-thread quarantine rings" records the
# measurement), so a 1.10 gate would flag weather, not regressions. On a
# quiet dedicated host tighten it: make bench-gate BENCH_GATE_RATIO=1.10.
BENCH_GATE_RATIO ?= 1.5
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkMallocFree64' -benchtime=300000x -count=5 . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_free.json -match MallocFree64 -max-ratio $(BENCH_GATE_RATIO)
	$(GO) test -run '^$$' -bench 'BenchmarkSweepRelease' -count=5 ./internal/core \
		| $(GO) run ./cmd/benchjson -baseline BENCH_sweep.json -match SweepRelease -max-ratio $(BENCH_GATE_RATIO)
	$(GO) test -run '^$$' -bench 'BenchmarkFleet64Tenants' -benchtime=50x -count=5 ./internal/fleet \
		| $(GO) run ./cmd/benchjson -baseline BENCH_fleet.json -match Fleet64Tenants -max-ratio $(BENCH_GATE_RATIO)

# The overhead gates: rows of TestOverheadGates (overhead_gate_test.go), one
# interleaved-chunk A/B floor estimator shared by all of them. Each row keeps
# one long-lived process per configuration, alternates fixed-iteration
# chunks of the 64-byte malloc/free pair between them, and compares the
# per-side minimum chunks; see the test for why separate -bench entries are
# unreliable here. MS_OVERHEAD_GATE=1 un-skips the test.
#
# telemetry-overhead: telemetry-on within 3% of telemetry-off.
telemetry-overhead:
	MS_OVERHEAD_GATE=1 $(GO) test -run '^TestOverheadGates$$/^telemetry$$' -count=1 -v .

# events-overhead: what the flight recorder adds on top of an already
# telemetered process (its sampled alloc/free events ride telemetry's 1-in-N
# countdown; the unsampled fast path only gains an atomic pointer load and
# branch on amortised checks), within 3%.
events-overhead:
	MS_OVERHEAD_GATE=1 $(GO) test -run '^TestOverheadGates$$/^events$$' -count=1 -v .

# governor-overhead: the governed pair (budget far above any pressure, so the
# plane is attached but idle) within 3% of the ungoverned run — knobs are read
# at sweep boundaries and the amortised trigger check only.
governor-overhead:
	MS_OVERHEAD_GATE=1 $(GO) test -run '^TestOverheadGates$$/^governor$$' -count=1 -v .

# Governor budget gate: measure the pressure ramp's unbounded peak RSS, hand
# the AIMD governor 75% of it, and require the governed peak to stay within
# 10% of the budget. The acceptance experiment for the control plane.
governor-gate:
	MS_GOVERNOR_GATE=1 $(GO) test -run '^TestGovernorBudgetBound$$' -count=1 -v ./internal/workload

# Pause-tail gate: run the multi-threaded pressure ramp under the pipelined
# mostly-concurrent sweep with a real stop-the-world and require the p99.9
# pause from the exact stw histogram to stay under MS_PAUSE_BOUND_NS. The
# default bound, 2^19 ns, is a histogram bucket boundary (buckets are powers
# of two and a quantile reports its bucket's upper edge), so a pass proves
# the p99.9 pause is under 0.53 ms. The acceptance experiment for the
# pipelined sweep.
MS_PAUSE_BOUND_NS ?= 524288
pause-gate:
	MS_PAUSE_GATE=1 MS_PAUSE_BOUND_NS=$(MS_PAUSE_BOUND_NS) $(GO) test -run '^TestPauseTailBound$$' -count=1 -v ./internal/workload

# Fleet acceptance gate: run a 256-tenant fleet twice — unbounded to
# calibrate its natural peak footprint, then under 75% of that peak — and
# require the governed host peak RSS to stay within budget+10% while every
# tenant keeps its guaranteed floor and no priority-0 tenant's p99.9 pause
# leaves the pause-gate envelope (2^19 ns). The acceptance experiment for
# the federated (host + tenant) governor.
fleet-gate:
	MS_FLEET_GATE=1 $(GO) test -run '^TestFleetGate$$' -count=1 -v -timeout 600s ./internal/fleet

# Flight-recorder smoke: run the pressure ramp under a budget tight enough to
# drive the governor critical, require an anomaly-triggered dump (not the
# end-of-run fallback capture), then require msstat to parse the dump,
# validate its span nesting, render the timeline, and convert it to a Chrome
# trace that json.tool accepts. The end-to-end acceptance for the events
# pipeline: emit -> trip -> MSEV encode -> decode -> export.
FLIGHTREC_TMP ?= /tmp/ms-flightrec-smoke
flightrec-smoke:
	$(GO) run ./cmd/msrun -bench pressure -scheme minesweeper -scale 8 -budget 8M \
		-events-dump $(FLIGHTREC_TMP).msev | tee $(FLIGHTREC_TMP).out
	grep -Eq 'events: [1-9][0-9]* anomaly' $(FLIGHTREC_TMP).out
	$(GO) run ./cmd/msstat -events $(FLIGHTREC_TMP).msev -chrome $(FLIGHTREC_TMP)-trace.json \
		> $(FLIGHTREC_TMP)-timeline.txt
	grep -q 'flight dump: cause=' $(FLIGHTREC_TMP)-timeline.txt
	python3 -m json.tool $(FLIGHTREC_TMP)-trace.json > /dev/null
	@echo "flightrec-smoke: OK ($$(wc -c < $(FLIGHTREC_TMP).msev) byte dump, timeline + chrome trace render)"

# One testing.B target per paper figure plus the API micro-benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure at full scale (the artifact's do_all.sh analogue).
figures:
	$(GO) run ./cmd/msbench -fig all -reps 3 -out experiments_raw.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/uafexploit
	$(GO) run ./examples/webcache
	$(GO) run ./examples/fdpoison
	$(GO) run ./examples/telemetry
	$(GO) run ./examples/governor
	$(GO) run ./examples/flightrec
	$(GO) run ./examples/fleet

clean:
	$(GO) clean ./...
