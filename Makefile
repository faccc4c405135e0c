# Optimus reproduction — common tasks.

GO ?= go

.PHONY: all build vet test race bench bench-test bench-diff bench-all loadbench load-smoke failover-smoke quick full fuzz serve load smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# internal/experiments runs its parallel worker pool under the detector;
# internal/serve includes the 1000-submission daemon load test.
race:
	$(GO) test -race ./internal/core/ ./internal/psys/ ./internal/kube/ ./internal/operator/ ./internal/sim/ ./internal/chaos/ ./internal/experiments/ ./internal/serve/ ./internal/obs/ ./internal/cells/ ./internal/wal/ ./internal/ha/

# Micro-benchmarks of the core algorithms, recorded as the repo's perf
# trajectory: BENCH_1.json is the first point; bump N for later snapshots
# and compare ns/op and allocs/op against the committed history.
BENCH_MICRO = ^(BenchmarkAllocate|BenchmarkPlace|BenchmarkLossFit|BenchmarkSpeedFit|BenchmarkNNLS|BenchmarkPAA|BenchmarkPSStep|BenchmarkCells|BenchmarkIncrementalInterval|BenchmarkSubmitWAL)$$
BENCH_OUT ?= BENCH_7.json
BENCH_BASE ?= BENCH_6.json

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench/ is its own module (optimus/bench), so `go test ./...` never compiles
# it; this keeps an API change in internal/* from breaking it unnoticed (~6 s).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Like bench, but also print per-benchmark ns/op and allocs/op deltas against
# the previous committed snapshot.
bench-diff:
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -diff $(BENCH_BASE)

# One benchmark per paper table/figure plus micro-benchmarks; prints the
# regenerated rows.
bench-all:
	$(GO) test -bench=. -benchmem .

# Serving-path load benchmark: single-mutex vs sharded in-process
# before/after plus open-loop optimusd-load runs at -cells 1/4/8, recorded
# as BENCH_6.json. DIFF=BENCH_6.json prints advisory deltas vs the
# committed record; DUR/RATE/CLIENTS tune the open-loop phase.
loadbench:
	./scripts/loadbench.sh

# 10s open-loop smoke at -cells 1 and 4: zero errors, bounded p99. CI gate.
load-smoke:
	./scripts/smoke_load.sh

# HA failover smoke: leader + warm standby on one WAL dir, kill -9 the
# leader under open-loop load, assert takeover within one lease TTL and
# exactly-once admission across the cutover. Runs under -race. CI gate.
failover-smoke:
	./scripts/smoke_failover.sh

# Fast smoke reproduction of every exhibit.
quick:
	$(GO) run ./cmd/optimus-sim -quick all

# Paper-scale reproduction of every exhibit (several minutes).
full:
	$(GO) run ./cmd/optimus-sim all

fuzz:
	$(GO) test -fuzz FuzzSolve -fuzztime 15s ./internal/nnls/
	$(GO) test -fuzz FuzzPAA -fuzztime 15s ./internal/psassign/
	$(GO) test -fuzz FuzzReadJobs -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzParseSchedule -fuzztime 15s ./internal/chaos/
	$(GO) test -fuzz FuzzDecodeSubmit -fuzztime 15s ./internal/serve/
	$(GO) test -fuzz FuzzChromeTrace -fuzztime 15s ./internal/obs/
	$(GO) test -fuzz FuzzCellCommit -fuzztime 15s ./internal/cells/
	$(GO) test -fuzz FuzzIncrementalChurn -fuzztime 15s ./internal/core/
	$(GO) test -fuzz FuzzWALDecode -fuzztime 15s ./internal/wal/

# Run the online scheduler daemon on the paper testbed (600x scaled time).
serve:
	$(GO) run ./cmd/optimusd -addr :8080 -tick 1s

# Fire 1000 concurrent submissions at a daemon started with `make serve`.
load:
	$(GO) run ./cmd/optimusd-load -url http://localhost:8080 -n 1000 -c 64

# End-to-end daemon smoke: boot on a random port, submit, poll, snapshot,
# restore. Used by CI.
smoke:
	./scripts/smoke_optimusd.sh

clean:
	rm -rf internal/*/testdata/fuzz
