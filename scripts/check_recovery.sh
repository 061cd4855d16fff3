#!/usr/bin/env bash
# Kill/restart zero-loss gate: run the loadgen chaos drill — every
# session subscribes and hibernates onto the spool, half the load is
# published, the host is killed abruptly and restarted on the same
# spool, the rest is published, and the devices drain everything back.
# The gate: every session recovered, zero notifications lost across the
# kill, duplicates bounded, and no trace-attributed "lost" outcome.
# Finally the spool itself is checksum-verified with lasthop-journal.
#
# The default scale (200 devices, 20 topics, 4000 notifications) is the one
# that reproduced the first-contact deadlock; the drill takes a few seconds
# there, so the 15 s timeout turns a hang into a prompt failure. Scale with
# RECOVERY_DEVICES / RECOVERY_TOPICS / RECOVERY_N; keep the report as a CI
# artifact with RECOVERY_REPORT.
set -euo pipefail
cd "$(dirname "$0")/.."

DEVICES="${RECOVERY_DEVICES:-200}"
TOPICS="${RECOVERY_TOPICS:-20}"
N="${RECOVERY_N:-4000}"
OUT="${RECOVERY_REPORT:-$(mktemp)}"
SPOOL="$(mktemp -d)"
trap 'rm -rf "$SPOOL"' EXIT

go run ./cmd/lasthop-loadgen -recovery \
  -publishers 4 -devices "$DEVICES" -topics "$TOPICS" -n "$N" \
  -spool-dir "$SPOOL" -trace-sample 1 -timeout 15s -q -out "$OUT"

python3 - "$OUT" "$DEVICES" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
devices = int(sys.argv[2])
fail = 0
def gate(cond, msg):
    global fail
    if not cond:
        print("check_recovery: FAIL:", msg, file=sys.stderr)
        fail = 1
recovered = rep.get("recovered", 0)
lost = rep.get("lost", 0)
delivered = rep.get("delivered", 0)
duplicates = rep.get("duplicates", 0)
gate(recovered == devices, f"recovered {recovered} of {devices} sessions")
gate(lost == 0, f"{lost} notifications lost across the kill")
gate(delivered > 0, "nothing delivered")
# Redelivery after a crash is legal (at-most-duplicate-suppressed), but
# a correct READ-ID reconciliation keeps it far below one per delivery.
gate(duplicates <= delivered // 10, f"{duplicates} duplicates for {delivered} deliveries")
outcomes = rep.get("traceOutcomes", {})
gate(outcomes.get("lost", 0) == 0, f"trace outcomes report loss: {outcomes}")
print(f"check_recovery: {recovered} sessions recovered, {delivered} delivered, "
      f"{duplicates} duplicates, 0 lost; outcomes={outcomes}")
sys.exit(fail)
EOF

# The drill leaves the drained spool behind; every record must still
# pass its CRC.
go run ./cmd/lasthop-journal -spool "$SPOOL" -verify
echo "check_recovery: OK"
