#!/usr/bin/env bash
# Scenario atlas regression gate: run every atlas entry through
# cmd/lasthop-loadgen -scenario and assert each verdict passes — zero lost
# outcomes, duplicates/waste/latency inside the scenario's budget, and
# exact trace-outcome conservation at 100% sampling. The verdict-bearing
# reports land in SCENARIO_REPORT (kept as the CI artifact).
#
# kill-restart is the zero-loss crash gate: at scale 1, 200 sessions on 20
# topics hibernate, ~4,000 notifications spool across a host kill and
# restart on the same spool, and the verdict fails unless every session is
# recovered, every device reads every ID published to its topic,
# duplicates stay within a tenth of the deliveries, no trace ends "lost",
# and the spool verifies. SCENARIO_TIMEOUT turns a hang into a failure.
#
# The downscaled default finishes in ~2 minutes (the quiet-flood release
# waits for a real wall-clock minute boundary). Set LASTHOP_SCENARIO_FULL=1
# for the full-size sweep: the same budgets at several times the device
# population and publish volume.
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT="${SCENARIO_REPORT:-$(mktemp)}"
SCALE="${SCENARIO_SCALE:-1}"
TIMEOUT="${SCENARIO_TIMEOUT:-3m}"
if [ "${LASTHOP_SCENARIO_FULL:-0}" = 1 ]; then
  SCALE="${SCENARIO_SCALE:-6}"
  TIMEOUT="${SCENARIO_TIMEOUT:-10m}"
fi

echo "check_scenarios: running the atlas at scale $SCALE (report: $REPORT)"
if ! go run ./cmd/lasthop-loadgen -scenario all \
    -scenario-scale "$SCALE" -timeout "$TIMEOUT" -out "$REPORT"; then
  echo "check_scenarios: scenario verdicts failed; report in $REPORT" >&2
  grep -A4 '"failures"' "$REPORT" >&2 || true
  exit 1
fi

# Belt and braces over the exit code: the artifact must hold one passing
# verdict per atlas entry and no lost outcomes anywhere.
verdicts="$(grep -c '"pass": true' "$REPORT" || true)"
want="$(go run ./cmd/lasthop-loadgen -list-scenarios | grep -c 'failure mode')"
if [ "$verdicts" -ne "$want" ]; then
  echo "check_scenarios: $verdicts passing verdicts in the report, want $want" >&2
  exit 1
fi
if grep -q '"lost": [^0]' "$REPORT"; then
  echo "check_scenarios: report contains lost notifications" >&2
  exit 1
fi

echo "check_scenarios: ok ($verdicts scenarios passed; verdicts in $REPORT)"
