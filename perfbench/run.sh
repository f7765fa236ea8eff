#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload offline-wide --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch trees all live under .bench_build in the current
# directory, so nothing is read from or written to the rest of the system
# beyond the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
