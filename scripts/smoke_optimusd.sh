#!/usr/bin/env bash
# End-to-end smoke test for the optimusd daemon: boot on a random port,
# submit a job over HTTP, poll it to a running allocation, stop it gracefully
# (SIGTERM writes a WAL checkpoint), restart on the same -wal-dir, and verify
# the job and the arrival counter survived.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill $pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/optimusd" ./cmd/optimusd
go build -o "$workdir/optimusd-load" ./cmd/optimusd-load
go build -o "$workdir/optimus-trace" ./cmd/optimus-trace

"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/port" \
    -tick 100ms -wal-dir "$workdir/wal" >"$workdir/d1.log" 2>&1 &
pid=$!

for i in $(seq 1 50); do
    [ -s "$workdir/port" ] && break
    sleep 0.1
done
addr=$(cat "$workdir/port")
echo "daemon on $addr"

# Readiness gate: no traffic until /readyz reports every component up.
ready=0
for i in $(seq 1 50); do
    code=$(curl -s -o "$workdir/ready.json" -w '%{http_code}' "http://$addr/readyz")
    [ "$code" = 200 ] && { ready=1; break; }
    sleep 0.1
done
[ "$ready" = 1 ] || { echo "daemon never became ready:"; cat "$workdir/ready.json"; exit 1; }
"$workdir/optimus-trace" jsonok <"$workdir/ready.json" ||
    { echo "/readyz is not valid JSON:"; cat "$workdir/ready.json"; exit 1; }
grep -q '"engine"' "$workdir/ready.json" ||
    { echo "/readyz missing engine component:"; cat "$workdir/ready.json"; exit 1; }
# Responses are fetched to a file before grepping: grep -q exits at its
# first match, and under pipefail the curl it cut off fails the pipeline.
curl -s "http://$addr/metrics" >"$workdir/metrics.txt"
grep -q '^optimus_ready 1' "$workdir/metrics.txt" ||
    { echo "metrics missing optimus_ready gauge"; exit 1; }

code=$(curl -s -o "$workdir/submit.json" -w '%{http_code}' \
    -X POST "http://$addr/v1/jobs" \
    -d '{"model":"resnet-50","mode":"async","threshold":0.01}')
[ "$code" = 201 ] || { echo "submit returned $code"; cat "$workdir/submit.json"; exit 1; }
grep -q '"id":1' "$workdir/submit.json" || { echo "no job id in response"; exit 1; }

# Poll until the scheduler places the job.
for i in $(seq 1 50); do
    curl -s "http://$addr/v1/jobs/1" >"$workdir/status.json"
    grep -q '"state":"running"' "$workdir/status.json" && break
    sleep 0.1
done
grep -q '"state":"running"' "$workdir/status.json" || {
    echo "job never ran:"; cat "$workdir/status.json"; exit 1; }
grep -q '"workers":' "$workdir/status.json" || { echo "no allocation"; exit 1; }

curl -s "http://$addr/metrics" >"$workdir/metrics.txt"
grep -q '^optimus_jobs_arrived_total 1' "$workdir/metrics.txt" ||
    { echo "metrics missing arrival counter"; exit 1; }
# The SSE stream never terminates on its own; let curl time out after the
# ring replay and inspect what it captured.
curl -s --max-time 2 "http://$addr/v1/events?since=0" >"$workdir/events.txt" || true
grep -q 'event: placed' "$workdir/events.txt" ||
    { echo "event stream missing placed event"; cat "$workdir/events.txt"; exit 1; }

# Decision tracing (-trace defaults on): the span export and the per-job
# audit must both serve non-empty, well-formed JSON.
curl -s "http://$addr/v1/trace" >"$workdir/trace.json"
"$workdir/optimus-trace" jsonok <"$workdir/trace.json" ||
    { echo "/v1/trace is not valid JSON:"; head -c 400 "$workdir/trace.json"; exit 1; }
grep -q '"name":"interval"' "$workdir/trace.json" ||
    { echo "trace has no interval spans"; head -c 400 "$workdir/trace.json"; exit 1; }
curl -s "http://$addr/v1/jobs/1/explain" >"$workdir/explain.json"
"$workdir/optimus-trace" jsonok <"$workdir/explain.json" ||
    { echo "/v1/jobs/1/explain is not valid JSON:"; cat "$workdir/explain.json"; exit 1; }
# A running job has at least one recorded decision that placed it on nodes.
grep -q '"decisions":\[{' "$workdir/explain.json" ||
    { echo "explain has no decisions:"; cat "$workdir/explain.json"; exit 1; }
grep -q '"nodes":\["' "$workdir/explain.json" ||
    { echo "explain has no placed decision:"; cat "$workdir/explain.json"; exit 1; }
# The offline explain records under every policy; it exits non-zero when
# nothing is recorded for the job.
for p in optimus drf tetris; do
    "$workdir/optimus-trace" explain -job 0 -policy "$p" >/dev/null ||
        { echo "optimus-trace explain -policy $p recorded nothing"; exit 1; }
done

# Debug bundle: one JSON document with build info, readiness, SLO burn,
# the flight-recorder tail and goroutine stacks.
curl -s "http://$addr/debug/bundle" >"$workdir/bundle.json"
"$workdir/optimus-trace" jsonok <"$workdir/bundle.json" ||
    { echo "/debug/bundle is not valid JSON:"; head -c 400 "$workdir/bundle.json"; exit 1; }
for field in '"build"' '"ready"' '"slo"' '"flight"' '"goroutines"'; do
    grep -q "$field" "$workdir/bundle.json" ||
        { echo "bundle missing $field:"; head -c 400 "$workdir/bundle.json"; exit 1; }
done
grep -q '"msg":"round"' "$workdir/bundle.json" ||
    { echo "bundle flight tail has no engine rounds"; exit 1; }
# Build identity is served everywhere it should be.
curl -s "http://$addr/v1/cluster" >"$workdir/cluster.txt"
grep -q '"build"' "$workdir/cluster.txt" ||
    { echo "/v1/cluster missing build block"; exit 1; }
curl -s "http://$addr/metrics" >"$workdir/metrics.txt"
grep -q '^optimus_build_info{' "$workdir/metrics.txt" ||
    { echo "metrics missing optimus_build_info"; exit 1; }
"$workdir/optimusd" -version | grep -q '^optimusd ' ||
    { echo "-version printed nothing"; exit 1; }

"$workdir/optimusd-load" -url "http://$addr" -duration 2s -rate 100 -mix submit=100 -max-error-rate 0

# The arrival counter is read from the job registry, so the restarted
# daemon must report the same value.
curl -s "http://$addr/metrics" >"$workdir/metrics.txt"
arrived=$(grep '^optimus_jobs_arrived_total ' "$workdir/metrics.txt" | cut -d' ' -f2)
[ -n "$arrived" ] && [ "$arrived" -gt 1 ] ||
    { echo "arrival counter $arrived after the load run"; exit 1; }

# Graceful shutdown writes a WAL checkpoint as the log's last record.
kill -TERM $pid
wait $pid
"$workdir/optimus-trace" wal "$workdir/wal" >"$workdir/wal.txt" 2>"$workdir/walscan.txt"
tail -n 1 "$workdir/wal.txt" >"$workdir/last.txt"
grep -q '"type":"checkpoint"' "$workdir/last.txt" ||
    { echo "log does not end in a checkpoint:"; head -c 400 "$workdir/last.txt"; exit 1; }

# Restart on the same WAL: the job must come back with its progress.
"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/port2" \
    -tick 100ms -wal-dir "$workdir/wal" >"$workdir/d2.log" 2>&1 &
pid=$!
for i in $(seq 1 50); do
    [ -s "$workdir/port2" ] && break
    sleep 0.1
done
addr2=$(cat "$workdir/port2")
curl -s "http://$addr2/v1/jobs/1" >"$workdir/restored.json"
grep -Eq '"state":"(running|waiting|done)"' "$workdir/restored.json" ||
    { echo "job lost in restart:"; cat "$workdir/restored.json"; exit 1; }
grep -q '"progressEpochs":0,' "$workdir/restored.json" &&
    { echo "restored job lost its progress:"; cat "$workdir/restored.json"; exit 1; }
curl -s "http://$addr2/metrics" >"$workdir/metrics2.txt"
grep -q "^optimus_jobs_arrived_total $arrived\$" "$workdir/metrics2.txt" ||
    { echo "arrival counter not $arrived after restart:"; grep '^optimus_jobs_' "$workdir/metrics2.txt"; exit 1; }
kill -TERM $pid
wait $pid

echo "optimusd smoke OK"
