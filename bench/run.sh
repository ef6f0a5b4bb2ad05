#!/usr/bin/env bash
# Builds leaseperf from this checkout and runs it with the arguments
# given. BENCHMARK.json's command is this script; run it from the root
# of the repository:
#
#   bash bench/run.sh --workload v_mix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -traced
#
# Everything the build writes goes to .bench_build/ in the checkout, the
# Go build cache included, and everything a run writes to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
# bench/ is a module of its own that replaces the repository's module
# with the parent directory; outside a checkout of the repository the
# build fails here and the script exits non-zero.
(cd "$root/bench" && go build -o "$build/leaseperf" ./leaseperf)
cd "$root"
exec "$build/leaseperf" "$@"
