#!/usr/bin/env bash
# HA failover smoke: a leader and a warm-standby follower share one WAL
# directory; open-loop load runs against both URLs while the leader is
# kill -9ed mid-run. Asserts, in order:
#
#   1. the follower promotes itself to leader within one lease TTL
#      (polled from /v1/cluster's ha block),
#   2. admission is exactly-once across the cutover — the full WAL history
#      has no duplicate submit IDs (optimus-trace wal dump),
#   3. no acked submission was lost — every job ID the harness stored is
#      still served by the new leader,
#   4. the new leader keeps admitting (post-failover submit succeeds),
#   5. the promoted follower's /debug/bundle is valid JSON whose flight
#      recorder narrates the takeover,
#   6. (fail-stop phase) a live leader whose lease is stolen fail-stops
#      and leaves a bundle-failstop-<pid>.json on disk that explains why.
#
# Both daemons are built with -race so the whole failover path runs under
# the detector. Used by CI (make failover-smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

TTL=${TTL:-2s}
DUR=${DUR:-8s}
RATE=${RATE:-150}

workdir=$(mktemp -d)
lpid=""
fpid=""
cleanup() {
    kill -9 $lpid $fpid 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -race -o "$workdir/optimusd" ./cmd/optimusd
go build -o "$workdir/optimusd-load" ./cmd/optimusd-load
go build -o "$workdir/optimus-trace" ./cmd/optimus-trace

waldir="$workdir/wal"

"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/lport" \
    -wal-dir "$waldir" -fsync group -lease-ttl "$TTL" -ha-id leader \
    -nodes 16 -tick 100ms >"$workdir/leader.log" 2>&1 &
lpid=$!
for i in $(seq 1 50); do [ -s "$workdir/lport" ] && break; sleep 0.1; done
leader=$(cat "$workdir/lport")

"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/fport" \
    -wal-dir "$waldir" -follow -lease-ttl "$TTL" -ha-id follower \
    -nodes 16 -tick 100ms >"$workdir/follower.log" 2>&1 &
fpid=$!
for i in $(seq 1 50); do [ -s "$workdir/fport" ] && break; sleep 0.1; done
follower=$(cat "$workdir/fport")

echo "== failover smoke: leader $leader (pid $lpid), follower $follower (pid $fpid), ttl $TTL =="

# Readiness before any load: the leader must be fully up, and the follower
# must be ready-for-takeover (replay lag within bound) — distinct checks.
for url in "$leader" "$follower"; do
    ok=0
    for i in $(seq 1 50); do
        code=$(curl -s -o "$workdir/ready.json" -w '%{http_code}' "http://$url/readyz")
        [ "$code" = 200 ] && { ok=1; break; }
        sleep 0.1
    done
    [ "$ok" = 1 ] || { echo "FAIL: $url never ready:"; cat "$workdir/ready.json"; exit 1; }
done
echo "leader and follower both ready"

# Open-loop load against the pool; submit-heavy so the cutover is exercised
# on the write path. The harness tolerates the blackout (-max-error-rate 1)
# — the assertions below are the gate, not its error rate.
"$workdir/optimusd-load" -urls "http://$leader,http://$follower" \
    -duration "$DUR" -rate "$RATE" -clients 64 \
    -mix 'submit=60,status=40' -dist uniform \
    -max-error-rate 1 >"$workdir/load.log" 2>&1 &
loadpid=$!

# kill -9 the leader mid-run: no snapshot, no graceful WAL close.
sleep 3
kill -9 $lpid
killed_at=$(date +%s.%N)
echo "leader killed"

# 1. Follower must report itself leader once the lease runs out. The dead
# leader's last renewal can predate the kill by almost one TTL, so
# "takeover within one TTL of expiry" is a 2*TTL wall-clock budget from the
# kill (polled at 100ms).
ttl_s=${TTL%s}
role=""
promoted=0
for i in $(seq 1 $((ttl_s * 20))); do
    role=$(curl -sf "http://$follower/v1/cluster" | sed -n 's/.*"role":"\([a-z]*\)".*/\1/p' || true)
    if [ "$role" = "leader" ]; then promoted=1; break; fi
    sleep 0.1
done
if [ "$promoted" != 1 ]; then
    echo "FAIL: follower never promoted within 2x$TTL (role=$role)"
    tail -5 "$workdir/follower.log" "$workdir/leader.log"
    exit 1
fi
took=$(awk "BEGIN{printf \"%.1f\", $(date +%s.%N) - $killed_at}")
echo "follower promoted to leader in ${took}s (ttl $TTL)"

wait $loadpid || true
cat "$workdir/load.log"
grep -q '^failover:' "$workdir/load.log" || { echo "FAIL: no failover report"; exit 1; }

# 4. The new leader keeps admitting.
code=$(curl -s -o "$workdir/post.json" -w '%{http_code}' -X POST \
    -d '{"model":"resnet-50","mode":"async"}' "http://$follower/v1/jobs")
[ "$code" = "201" ] || { echo "FAIL: post-failover submit got $code"; exit 1; }
echo "post-failover submit OK"

# 2. Exactly-once admission: no job ID appears in two submit records.
"$workdir/optimus-trace" wal "$waldir" -o "$workdir/wal.jsonl" 2>"$workdir/walscan.log"
cat "$workdir/walscan.log"
dups=$(grep '"type":"submit"' "$workdir/wal.jsonl" \
    | sed 's/.*"payload":{"id":\([0-9]*\).*/\1/' | sort -n | uniq -d | wc -l)
[ "$dups" = "0" ] || { echo "FAIL: $dups duplicate admissions in WAL"; exit 1; }
nsub=$(grep -c '"type":"submit"' "$workdir/wal.jsonl")
echo "exactly-once admission: $nsub submits, 0 duplicates"

# 3. No acked submission lost: every submit ID in the log is served.
lost=0
for id in $(grep '"type":"submit"' "$workdir/wal.jsonl" \
    | sed 's/.*"payload":{"id":\([0-9]*\).*/\1/'); do
    curl -sf "http://$follower/v1/jobs/$id" >/dev/null || { lost=$((lost+1)); echo "lost job $id"; }
done
[ "$lost" = "0" ] || { echo "FAIL: $lost acked jobs missing after failover"; exit 1; }
echo "all $nsub acked submissions survived the failover"

# 5. The promoted follower's debug bundle narrates the takeover.
curl -s "http://$follower/debug/bundle" >"$workdir/bundle.json"
"$workdir/optimus-trace" jsonok <"$workdir/bundle.json" ||
    { echo "FAIL: /debug/bundle is not valid JSON:"; head -c 400 "$workdir/bundle.json"; exit 1; }
grep -q '"msg":"lease acquired"' "$workdir/bundle.json" ||
    { echo "FAIL: bundle flight tail missing lease acquisition"; exit 1; }
grep -q '"role":"leader"' "$workdir/bundle.json" ||
    { echo "FAIL: bundle HA block does not show leadership"; exit 1; }
echo "promoted follower's bundle narrates the takeover"

kill -TERM $fpid
wait $fpid || true
fpid=""
grep -i 'DATA RACE' "$workdir/leader.log" "$workdir/follower.log" && { echo "FAIL: race detected"; exit 1; }

# 6. Fail-stop phase: a standalone leader whose lease is stolen must
# fail-stop (not split-brain) and leave a bundle explaining why. Forge an
# intruder lease document with a higher term; the next renewal (TTL/3)
# sees a foreign holder, Fatalf fires, and the fail-stop hook writes
# bundle-failstop-<pid>.json next to the WAL before the process dies.
waldir2="$workdir/wal2"
"$workdir/optimusd" -addr 127.0.0.1:0 -portfile "$workdir/l2port" \
    -wal-dir "$waldir2" -fsync group -lease-ttl 1s -ha-id doomed \
    -nodes 16 -tick 100ms >"$workdir/doomed.log" 2>&1 &
l2pid=$!
for i in $(seq 1 50); do [ -s "$workdir/l2port" ] && break; sleep 0.1; done
expires=$(date -u -d '+60 seconds' +%Y-%m-%dT%H:%M:%SZ)
printf '{"holder":"intruder","term":99,"expires":"%s"}' "$expires" \
    >"$waldir2/LEASE.forged"
mv "$waldir2/LEASE.forged" "$waldir2/LEASE"
echo "lease forged; waiting for the doomed leader (pid $l2pid) to fail-stop"
dead=0
for i in $(seq 1 50); do
    kill -0 $l2pid 2>/dev/null || { dead=1; break; }
    sleep 0.1
done
[ "$dead" = 1 ] || { echo "FAIL: leader survived a stolen lease (split-brain)"; kill -9 $l2pid; exit 1; }
wait $l2pid 2>/dev/null && { echo "FAIL: fail-stop exited 0"; exit 1; }
fsbundle="$waldir2/bundle-failstop-$l2pid.json"
[ -s "$fsbundle" ] || { echo "FAIL: no fail-stop bundle at $fsbundle"; ls "$waldir2"; exit 1; }
"$workdir/optimus-trace" jsonok <"$fsbundle" ||
    { echo "FAIL: fail-stop bundle is not valid JSON:"; head -c 400 "$fsbundle"; exit 1; }
# The on-disk bundle is indented JSON ("key": "value"), unlike the compact
# HTTP encoding — allow the space in the greps.
grep -q '"msg": *"lease lost"' "$fsbundle" ||
    { echo "FAIL: fail-stop bundle's flight tail missing the lease loss"; exit 1; }
grep -q '"reason": *"fail-stop: leader lease lost' "$fsbundle" ||
    { echo "FAIL: fail-stop bundle missing the fail-stop reason"; exit 1; }
echo "fail-stop bundle $(basename "$fsbundle") explains the lease loss"

echo "failover smoke OK"
