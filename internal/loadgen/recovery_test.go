package loadgen

import (
	"testing"
	"time"
)

// TestRunRecovery drives the kill-restart scenario at smoke scale (12
// devices on 4 topics): hibernate every session, publish into the
// spool, kill the host, restart it on the same spool, publish more,
// reconnect and drain. RunScenario fails the crash phase unless the
// restart recovers every hibernated session, so a nil error is the
// 12-of-12 recovery check; the verdict carries the drill's delivery
// gates (every owed ID read, duplicates within a tenth of deliveries,
// no trace-attributed loss, the spool verifies).
func TestRunRecovery(t *testing.T) {
	sc, err := FindScenario("kill-restart")
	if err != nil {
		t.Fatal(err)
	}
	sc.Devices, sc.Topics = 12, 4
	for i := range sc.Phases {
		if sc.Phases[i].PublishMean > 0 {
			sc.Phases[i].PublishMean = 15 // ~120 notifications over both halves
		}
	}
	rep, err := RunScenario(sc, ScenarioOptions{Timeout: 60 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Pass {
		t.Fatalf("verdict failed: %v", rep.Verdict.Failures)
	}
	if rep.Config.Devices != 12 {
		t.Fatalf("ran %d devices, want 12", rep.Config.Devices)
	}
	// Each device subscribes to one of 4 topics, 3 devices per topic,
	// and is owed every notification published there.
	if want := 3 * rep.Published; rep.Delivered != want {
		t.Fatalf("delivered %d, want %d (3 subscribers × %d published)", rep.Delivered, want, rep.Published)
	}
	if got := rep.TraceOutcomes["lost"]; got != 0 {
		t.Fatalf("trace outcomes report %d lost: %v", got, rep.TraceOutcomes)
	}
	if rep.Duplicates > rep.Delivered/10 {
		t.Fatalf("duplicates %d exceed a tenth of %d deliveries", rep.Duplicates, rep.Delivered)
	}
}
