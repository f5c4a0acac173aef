#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout, then runs it with the arguments given.
#
#   bash bench/run.sh --workload wire_clean --seed 1 --seconds 20 --trace 0
#
# Everything the go tool writes (build cache, temporary files, module
# cache, telemetry) is kept under .bench_build in the checkout, so a run
# reads and writes nothing outside it. The build fails, and the script
# exits non-zero, where the repository's own go.mod is missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/rekeybench" .) >&2
cd "$root"
exec "$build/rekeybench" "$@"
