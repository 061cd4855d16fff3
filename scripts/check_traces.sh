#!/usr/bin/env bash
# End-to-end trace check: run a fully-sampled loadgen topology, assert the
# /debug/traces endpoint serves a non-empty ring with the trace metric
# families behind it, then feed the JSONL dump through cmd/lasthop-doctor
# and assert every sampled notification reached exactly one terminal
# outcome. Set TRACE_REPORT to keep the doctor's report as a CI artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${OBS_ADDR:-127.0.0.1:19479}"
N="${TRACE_N:-300}"
OUT="$(mktemp)"
SCRAPE="$(mktemp)"
TRACES="$(mktemp)"
DUMP="${TRACE_DUMP:-$(mktemp)}"
REPORT="${TRACE_REPORT:-$(mktemp)}"
trap 'rm -f "$OUT" "$SCRAPE" "$TRACES"' EXIT

go run ./cmd/lasthop-loadgen -publishers 2 -devices 2 -n "$N" \
  -trace-sample 1 -trace-out "$DUMP" \
  -obs-addr "$ADDR" -linger 10s -q -out "$OUT" &
LG=$!

# Poll /debug/traces until the ring holds completed traces. The run
# lingers after the last delivery so the endpoint stays up long enough.
ok=0
for _ in $(seq 1 150); do
  if curl -fsS "http://$ADDR/debug/traces?n=5" -o "$TRACES" 2>/dev/null &&
     grep -q '"outcome"' "$TRACES"; then
    curl -fsS "http://$ADDR/metrics" -o "$SCRAPE"
    ok=1
    break
  fi
  sleep 0.2
done
wait "$LG"
if [ "$ok" != 1 ]; then
  echo "check_traces: /debug/traces on $ADDR never served a completed trace" >&2
  exit 1
fi

summary="$(go run ./cmd/lasthop-doctor -timeline 0 "$DUMP")"
echo "check_traces: /debug/traces live; ${summary%%$'\n'*}"

for fam in lasthop_trace_sampled_total lasthop_trace_completed_total \
           lasthop_trace_dropped_events_total lasthop_trace_ring_occupancy \
           lasthop_trace_active; do
  if ! grep -q "$fam" "$SCRAPE"; then
    echo "check_traces: missing metric family $fam" >&2
    exit 1
  fi
done

# Every sampled notification must land in exactly one terminal outcome:
# the dump holds one JSONL line per trace, and none may be incomplete
# (outcome is omitempty, so an unfinished trace has no "outcome" key).
lines="$(grep -c '"traceId"' "$DUMP" || true)"
if [ "$lines" -lt "$N" ]; then
  echo "check_traces: dump has $lines traces, expected at least $N" >&2
  exit 1
fi
if grep '"traceId"' "$DUMP" | grep -qv '"outcome":'; then
  echo "check_traces: dump contains traces without a terminal outcome" >&2
  exit 1
fi

go run ./cmd/lasthop-doctor -timeline 3 "$DUMP" | tee "$REPORT"
echo "check_traces: ok ($lines traces attributed; doctor report in $REPORT)"
