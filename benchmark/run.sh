#!/usr/bin/env bash
# Builds the rig from source into .bench_build/ at the checkout root and
# runs it. Everything the build writes (Go build cache included) stays
# inside the checkout. In a directory without the repro module the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/rig" . >&2
exec "$build/rig" -root "$root" "$@"
