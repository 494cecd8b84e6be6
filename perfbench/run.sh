#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload backlog-poll --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload submit-burst --repeat 5
#
# Run from the root of the checkout. Everything the build and the run
# write (Go caches and telemetry, the binary, head data directories,
# traces) stays under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
