#!/usr/bin/env bash
# Build pipetune_bench from this checkout (Release, into .bench_build/e2e)
# and run it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload submit-light --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the benchmark's result stays the last line
# of stdout. The first run in a checkout compiles the libraries (about a
# minute on 4 cores); later runs only check that the build is current.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=".bench_build/e2e"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target pipetune_bench -j "$(nproc)" >&2
exec "$build/pipetune_bench" "$@"
