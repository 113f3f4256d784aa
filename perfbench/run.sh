#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement.
#
#   bash perfbench/run.sh --workload <cew-txn|ycsb-a|ycsb-e> --seed <n> \
#        --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binary, temporary WAL, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
# The go command's telemetry counters live under the config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
