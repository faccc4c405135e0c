#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it from there with the given arguments. The Go build cache and temp
# files are kept there too, so nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"

go -C "$root/bench" build -o "$out/optimus-bench" .
cd "$root"
exec "$out/optimus-bench" "$@"
