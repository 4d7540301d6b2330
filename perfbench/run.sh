#!/usr/bin/env bash
# Builds the vmopt benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload grid-direct --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs
# leave behind (Go build cache, temp files, the binary, trace caches,
# span dumps) goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -workdir "$out/work" "$@"
