#!/usr/bin/env bash
# Open-loop serving smoke: boot optimusd and drive it with the YCSB-style
# harness for 10 seconds. The harness itself is the gate — it exits non-zero
# when any op errors (-max-error-rate 0) or the overall intended-start p99
# breaches the SLO (-max-p99). Used by CI.
set -euo pipefail
cd "$(dirname "$0")/.."

DUR=${DUR:-10s}
RATE=${RATE:-300}
MAX_P99=${MAX_P99:-500ms}

workdir=$(mktemp -d)
pid=""
trap 'kill $pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/optimusd" ./cmd/optimusd
go build -o "$workdir/optimusd-load" ./cmd/optimusd-load

"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/port" \
    -nodes 16 -tick 100ms >"$workdir/d.log" 2>&1 &
pid=$!
for i in $(seq 1 50); do
    [ -s "$workdir/port" ] && break
    sleep 0.1
done
addr=$(cat "$workdir/port")
echo "== open-loop smoke on $addr =="
"$workdir/optimusd-load" -url "http://$addr" \
    -duration "$DUR" -rate "$RATE" -clients 128 \
    -mix 'submit=5,status=90,delete=3,sse=2' -dist zipfian \
    -max-error-rate 0 -max-p99 "$MAX_P99"
kill -TERM $pid
wait $pid || true
pid=""

echo "open-loop smoke OK"
