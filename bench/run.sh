#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build and
# the run write stays under the checkout: the Go build cache is moved to
# .bench_build/gocache, store directories live in .bench_build/work and
# are removed on exit.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
go build -C "$root/bench" -o "$root/.bench_build/archive-bench" .
cd "$root"
exec "$root/.bench_build/archive-bench" "$@"
