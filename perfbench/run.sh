#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-remote-shm --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
