#!/usr/bin/env bash
# Interleaved base/change pairs of one benchmark workload.
#
# Usage: scripts/bench_pairs.sh WORKLOAD [PAIRS=4] [BASE=HEAD] [SECONDS=20] [SEED=1]
#
# Builds ./bench twice: from BASE, exported with `git archive` into a
# temporary directory that is removed on exit, and from the working tree.
# Then it runs PAIRS pairs of
#   --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
# with the base first in odd pairs and the change first in even ones, so a
# slow phase of a shared box does not land on one side only. It prints every
# run's correct, failed and nine end-to-end metrics, then per metric: both
# medians, their ratio (change / base), the pairs the change won by the
# metric's BENCHMARK.json `better` (ties count for neither), the base runs'
# interquartile range, and the claim rule: "met" when the change won at
# least 9/10 of the pairs and the medians differ by more than the base IQR.
# Each median that moved the worse way by more than its bound is flagged.
# (The window is an argument, not an environment variable: bash's own
# SECONDS counts the shell's run time.)
#
# Exit status: 64 on a usage error, or when bench/ or BENCHMARK.json
# differs between BASE and the working tree (a pair measured with two
# different benchmarks is not a pair); 1 if any run reported
# "correct": false or failed > 0; otherwise 2 if a median moved past its
# bound; otherwise 0.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  sed -n '3,25s/^# \{0,1\}//p' "$0" >&2
  exit 64
fi
workload=$1
pairs=${2:-4}
base=${3:-HEAD}
window=${4:-20}
seed=${5:-1}

if ! git diff --quiet "$base" -- bench BENCHMARK.json ||
  [ -n "$(git ls-files --others --exclude-standard -- bench)" ]; then
  echo "bench_pairs: bench/ or BENCHMARK.json differs between $base and the working tree;" \
    "a pair measured with two different benchmarks is not a pair" >&2
  exit 64
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/base"
echo "bench_pairs: building $base and the working tree" >&2
(cd "$tmp/base" && go build -o "$tmp/base.bin" ./bench)
go build -o "$tmp/change.bin" ./bench

# run SIDE PAIR: one benchmark run from SIDE's own tree. Its result line,
# named SIDE.PAIR, is appended to $tmp/runs; its standard error is kept.
run() {
  local dir=$PWD name=$1.$2
  [ "$1" = base ] && dir=$tmp/base
  echo "bench_pairs: pair $2, $1" >&2
  (cd "$dir" && "$tmp/$1.bin" --workload "$workload" --seed "$seed" --seconds "$window" --trace 0) \
    2>"$tmp/$name.err" | tail -n 1 >"$tmp/$name.json" || true
  if ! jq -e .metrics "$tmp/$name.json" >/dev/null 2>&1; then
    echo "bench_pairs: $name printed no result line; its standard error ends:" >&2
    tail -n 20 "$tmp/$name.err" >&2
    echo '{"correct": false, "failed": -1, "metrics": {}}' >"$tmp/$name.json"
  fi
  jq -c --arg name "$name" '{name: $name, res: .}' "$tmp/$name.json" >>"$tmp/runs"
}

for p in $(seq "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then
    run base "$p"
    run change "$p"
  else
    run change "$p"
    run base "$p"
  fi
done

jq -rn --slurpfile contract BENCHMARK.json --slurpfile runs "$tmp/runs" --argjson pairs "$pairs" '
  def pad($w): tostring | if length < $w then . + " " * ($w - length) else . end;
  def num: if . == null then "-" else . * 10000 | round / 10000 | tostring end;
  def median: sort | if length == 0 then null
    elif length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  # Linearly interpolated quantile, as numpy and R default to.
  def quantile($q): sort | if length == 0 then null
    else ($q * (length - 1)) as $h | ($h | floor) as $i
      | .[$i] + ($h - $i) * (.[[$i + 1, length - 1] | min] - .[$i]) end;
  def values($side; $m): [$runs[] | select(.name | startswith($side + ".")) | .res.metrics[$m].value // empty];
  def value($name; $m): first($runs[] | select(.name == $name) | .res.metrics[$m].value) // null;
  def wins($m; $better): [range(1; $pairs + 1) | tostring
    | value("base." + .; $m) as $b | value("change." + .; $m) as $c
    | select($b != null and $c != null
        and (if $better == "lower" then $c < $b else $c > $b end))] | length;
  def abs: if . < 0 then -. else . end;
  def row: (.[0] | pad(28)) + (.[1:] | map(pad(14)) | join("")) | sub(" +$"; "");
  ([["run"] + [$runs[].name]]
   + [["correct"] + [$runs[].res.correct]]
   + [["failed"] + [$runs[].res.failed]]
   + [$contract[0].end_to_end[].name as $m | [$m] + [$runs[].res.metrics[$m].value | num]]
   | .[] | row),
  "",
  (["median", "base", "change", "change/base", "bound", "wins", "base IQR", "claim rule", ""] | row),
  ($contract[0].end_to_end[]
   | (values("base"; .name) | median) as $b
   | (values("change"; .name) | median) as $c
   | (values("base"; .name) | if length == 0 then null else quantile(0.75) - quantile(0.25) end) as $iqr
   | wins(.name; .better) as $w
   | (if $b == null or $c == null or $b == 0 then null else $c / $b end) as $r
   | (if $b != null and $c != null and $w >= 0.9 * $pairs and ($c - $b | abs) > $iqr
      then "met" else "not met" end) as $claim
   | (if $r != null and ((.better == "lower" and $r > 1 + .bound) or (.better == "higher" and $r < 1 - .bound))
      then "WORSE past bound" else "" end) as $flag
   | [.name, ($b | num), ($c | num), ($r | num), .bound, "\($w)/\($pairs)", ($iqr | num), $claim, $flag] | row)
' | tee "$tmp/report"

if jq -se 'any(.[].res; .correct != true or .failed != 0)' "$tmp/runs" >/dev/null; then
  echo "bench_pairs: a run was incorrect or had failures" >&2
  exit 1
fi
if grep -q 'WORSE past bound' "$tmp/report"; then
  exit 2
fi
