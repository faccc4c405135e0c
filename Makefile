# Optimus reproduction — common tasks.

GO ?= go

.PHONY: all build vet test race bench bench-test bench-all load-smoke failover-smoke full fuzz serve load smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every package, the root one included. Slow (most of a minute on two cores):
# the detector runs internal/experiments' parallel worker pool, the
# 1000-submission daemon load test in internal/serve, and lossfit.FitAll's
# parallel refits several times slower than a plain test run.
race:
	$(GO) test -race ./...

# The repo's benchmark: end-to-end workloads plus per-layer probes, one JSON
# line per workload (see bench/README.md and BENCHMARK.json).
bench:
	bash bench/run.sh

# bench/ is its own module (optimus/bench), so `go test ./...` never compiles
# it; this keeps an API change in internal/* from breaking it unnoticed (~6 s).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One benchmark per paper table/figure plus micro-benchmarks; prints the
# regenerated rows.
bench-all:
	$(GO) test -bench=. -benchmem .

# 10s open-loop smoke against one default daemon: zero errors, bounded p99.
# CI gate.
load-smoke:
	./scripts/smoke_load.sh

# HA failover smoke: leader + warm standby on one WAL dir, kill -9 the
# leader under open-loop load, assert takeover within one lease TTL and
# exactly-once admission across the cutover. Runs under -race. CI gate.
failover-smoke:
	./scripts/smoke_failover.sh

# Paper-scale reproduction of every exhibit (under a second on 2 cores).
full:
	$(GO) run ./cmd/optimus-sim all

fuzz:
	$(GO) test -fuzz FuzzSolve -fuzztime 15s ./internal/nnls/
	$(GO) test -fuzz FuzzPAA -fuzztime 15s ./internal/psassign/
	$(GO) test -fuzz FuzzReadJobs -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzParseSchedule -fuzztime 15s ./internal/chaos/
	$(GO) test -fuzz FuzzDecodeSubmit -fuzztime 15s ./internal/serve/
	$(GO) test -fuzz FuzzWALPayload -fuzztime 15s ./internal/serve/
	$(GO) test -fuzz FuzzChromeTrace -fuzztime 15s ./internal/obs/
	$(GO) test -fuzz FuzzHeadroom -fuzztime 15s ./internal/core/
	$(GO) test -fuzz FuzzPlaceMatchesReference -fuzztime 15s ./internal/core/
	$(GO) test -fuzz FuzzWALDecode -fuzztime 15s ./internal/wal/

# Run the online scheduler daemon on the paper testbed (600x scaled time).
serve:
	$(GO) run ./cmd/optimusd -addr :8080 -tick 1s

# 10s of open-loop load against a daemon started with `make serve`.
load:
	$(GO) run ./cmd/optimusd-load -url http://localhost:8080 -duration 10s -rate 500

# End-to-end daemon smoke: boot with -wal-dir on a random port, submit,
# poll, stop with SIGTERM, restart from the WAL. Used by CI.
smoke:
	./scripts/smoke_optimusd.sh

clean:
	rm -rf internal/*/testdata/fuzz
