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
	rep, err := RunScenario(smokeKillRestart(t), ScenarioOptions{Timeout: 60 * time.Second, Logf: t.Logf, BundleDir: bundleDir(t)})
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

// smokeKillRestart is the kill-restart scenario at smoke scale: 12
// devices on 4 topics, ~120 notifications over both halves.
func smokeKillRestart(t *testing.T) Scenario {
	t.Helper()
	sc, err := FindScenario("kill-restart")
	if err != nil {
		t.Fatal(err)
	}
	sc.Devices, sc.Topics = 12, 4
	for i := range sc.Phases {
		if sc.Phases[i].PublishMean > 0 {
			sc.Phases[i].PublishMean = 15
		}
	}
	return sc
}

// TestScenarioScaleGrowsDevicesOnly: Scale multiplies the device
// population and nothing else, so owed reads grow linearly with it. At
// scale 2 the smoke drill publishes exactly what scale 1 publishes (the
// same seed draws the same per-topic counts) and delivers exactly twice
// as much.
func TestScenarioScaleGrowsDevicesOnly(t *testing.T) {
	var published, delivered [2]int
	bundles := bundleDir(t)
	for i, scale := range []float64{1, 2} {
		rep, err := RunScenario(smokeKillRestart(t), ScenarioOptions{Scale: scale, Timeout: 60 * time.Second, Logf: t.Logf, BundleDir: bundles})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verdict.Pass {
			t.Fatalf("scale %v: verdict failed: %v", scale, rep.Verdict.Failures)
		}
		if want := 12 * int(scale); rep.Config.Devices != want {
			t.Fatalf("scale %v ran %d devices, want %d", scale, rep.Config.Devices, want)
		}
		published[i], delivered[i] = rep.Published, rep.Delivered
	}
	if published[1] != published[0] || delivered[1] != 2*delivered[0] {
		t.Fatalf("published %d then %d, delivered %d then %d: want the same publishes and twice the deliveries",
			published[0], published[1], delivered[0], delivered[1])
	}
}
