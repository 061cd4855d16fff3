#!/usr/bin/env bash
# Non-test Go line counts: one line per package directory, then the
# repo-wide total with and without bench/. Counts tracked files only
# (git ls-files), so build outputs and scratch files never skew it.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z '*.go' ':!:*_test.go' | xargs -0 wc -l | awk '
  $2 == "total" { next }
  {
    dir = $2
    if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
    lines[dir] += $1
    total += $1
    if (dir !~ /^bench(\/|$)/) nobench += $1
  }
  END {
    for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
    close("sort -k2")
    printf "%7d  total\n", total
    printf "%7d  total without bench/\n", nobench
  }'
