#!/usr/bin/env bash
# Contended flake loop: build the internal/host and internal/wire test
# binaries once, run each N times beside one busy loop per CPU, and print
# failures/N per package. Any failure exits non-zero. Concurrency bugs in
# these two packages have measured ~1/200 on an idle box and 35-80 % on a
# busy one, so contention is the test condition. A failed run's full log
# is kept (its path is printed) in FLAKE_LOG_DIR, a fresh temp dir by
# default that is removed again when every run passes.
#
# Usage: scripts/check_flake.sh [N]   (default 30; CI runs 30, a release 200)
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-30}"
BIN="$(mktemp -d)"
LOGS="${FLAKE_LOG_DIR:-}"
if [ -z "$LOGS" ]; then
  LOGS="$(mktemp -d -t lasthop-flake-XXXXXX)"
  OWN_LOGS=1
fi
mkdir -p "$LOGS"
BURNERS=()
cleanup() {
  for pid in "${BURNERS[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$BIN"
  # A temp log dir goes only when no failed run's log is in it.
  [ -z "${OWN_LOGS:-}" ] || rmdir "$LOGS" 2>/dev/null || true
}
trap cleanup EXIT

for pkg in host wire; do
  go test -c -o "$BIN/$pkg.test" "./internal/$pkg"
done

for _ in $(seq "$(nproc)"); do
  (while :; do :; done) &
  BURNERS+=("$!")
done

status=0
for pkg in host wire; do
  failures=0
  for i in $(seq "$N"); do
    # Run from the package directory, as `go test` does.
    if ! (cd "internal/$pkg" && "$BIN/$pkg.test" -test.count=1 -test.timeout=5m) >"$BIN/$pkg.log" 2>&1; then
      failures=$((failures + 1))
      cp "$BIN/$pkg.log" "$LOGS/$pkg-run$i.log"
      echo "--- internal/$pkg run $i failed (full log: $LOGS/$pkg-run$i.log):"
      grep -E '^(--- FAIL|FAIL|panic:|\s+\S+_test\.go:[0-9]+:)' "$BIN/$pkg.log" | head -20 || true
    fi
  done
  echo "check_flake: internal/$pkg $failures/$N"
  [ "$failures" -eq 0 ] || status=1
done
exit "$status"
