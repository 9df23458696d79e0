#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from anywhere in the checkout:
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
# Everything the build and the run write stays under the checkout:
# .bench_build/ (binary, Go build cache, temp files) and bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/mod"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/aic-bench" .)
cd "$root"
exec "$build/aic-bench" "$@"
