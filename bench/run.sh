#!/bin/sh
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# The Go build cache is kept there too, so nothing is read or written
# outside the checkout.
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
work="$root/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$work/stbench" .
exec "$work/stbench" "$@"
