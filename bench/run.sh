#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, keeping the Go
# build cache and the go command's temporary files inside the checkout
# (.bench_build/, which .gitignore names). Arguments go to the benchmark:
#
#   bash bench/run.sh --workload unicast-steady --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
exec go run ./bench "$@"
