package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/metrics"
)

// TestCompareManyMatchesSerial holds the concurrent comparisons to a serial
// reference built from one Run of the baseline and one of each policy: for
// three seeds, with and without churn, and the five presets of the sim-year
// benchmark over 60 days, every Result field (the read sets included) is
// equal and waste and loss are equal bit for bit, whether the policies
// share one baseline (CompareMany) or each has its own (Compare).
func TestCompareManyMatchesSerial(t *testing.T) {
	names := []string{"online", "ondemand", "buffer", "rate", "unified"}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, churn := range []bool{false, true} {
			sc := mustScenario(t, goldenConfig(seed, churn))
			presets := goldenPresets(sc.Cfg.Max)
			policies := make([]core.TopicConfig, len(names))
			for i, name := range names {
				policies[i] = presets[name]
			}
			many, err := CompareMany(sc, policies...)
			if err != nil {
				t.Fatal(err)
			}
			if len(many) != len(policies) {
				t.Fatalf("%d comparisons for %d policies", len(many), len(policies))
			}
			base, err := Run(sc, core.OnlineConfig(TopicName))
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				pol, err := Run(sc, policies[i])
				if err != nil {
					t.Fatal(err)
				}
				want := Comparison{
					Baseline: base,
					Policy:   pol,
					WastePct: pol.WastePct,
					LossPct:  metrics.LossPct(base.ReadSet, pol.ReadSet),
				}
				one, err := Compare(sc, policies[i])
				if err != nil {
					t.Fatal(err)
				}
				for via, got := range map[string]Comparison{"CompareMany": many[i], "Compare": one} {
					where := fmt.Sprintf("seed %d churn %v %s via %s", seed, churn, name, via)
					if !reflect.DeepEqual(got.Baseline, want.Baseline) {
						t.Errorf("%s: baseline %+v, serial %+v", where, got.Baseline, want.Baseline)
					}
					if !reflect.DeepEqual(got.Policy, want.Policy) {
						t.Errorf("%s: policy %+v, serial %+v", where, got.Policy, want.Policy)
					}
					if math.Float64bits(got.WastePct) != math.Float64bits(want.WastePct) ||
						math.Float64bits(got.LossPct) != math.Float64bits(want.LossPct) {
						t.Errorf("%s: waste %v loss %v, serial %v %v", where, got.WastePct, got.LossPct, want.WastePct, want.LossPct)
					}
				}
			}
		}
	}
}

// TestCompareErrors checks the error precedence of a concurrent
// comparison, a failed baseline before any failed policy, and that every
// goroutine a comparison starts has exited once it returns.
func TestCompareErrors(t *testing.T) {
	start := runtime.NumGoroutine()
	sc := mustScenario(t, goldenConfig(1, false))
	good := core.UnifiedConfig(TopicName, sc.Cfg.Max)
	bad := core.BufferConfig(TopicName, sc.Cfg.Max, -1)

	_, err := CompareMany(sc, good, bad, good)
	if err == nil || !strings.HasPrefix(err.Error(), "policy: run: ") {
		t.Errorf("invalid policy: err = %v, want a policy: error", err)
	}

	sc.Arrivals[0].At = -1
	_, err = Compare(sc, good)
	if err == nil || !strings.HasPrefix(err.Error(), "baseline: run: arrival 0 at -1ns outside horizon") {
		t.Errorf("invalid scenario: Compare err = %v, want a baseline: error", err)
	}
	_, err = CompareMany(sc, good, bad, good)
	if err == nil || !strings.HasPrefix(err.Error(), "baseline: ") {
		t.Errorf("invalid scenario and policy: CompareMany err = %v, want a baseline: error", err)
	}
	settleGoroutines(t, start)
}

// TestInParallelReraisesPanic runs four years on four goroutines, each
// held until all four are in flight, and panics in every one: the call
// re-raises a panic on the caller's goroutine instead of crashing the
// process, and leaves no goroutine behind.
func TestInParallelReraisesPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	start := runtime.NumGoroutine()
	var inFlight sync.WaitGroup
	inFlight.Add(4)
	func() {
		defer func() {
			p := recover()
			if p == nil || !strings.HasPrefix(fmt.Sprint(p), "year ") {
				t.Errorf("recovered %v, want a year's panic", p)
			}
		}()
		inParallel(4, func(i int) {
			inFlight.Done()
			inFlight.Wait()
			panic(fmt.Sprintf("year %d", i))
		})
		t.Error("inParallel returned normally")
	}()
	settleGoroutines(t, start)
}

// settleGoroutines waits for the goroutine count to fall back to at most
// want: a goroutine that has signalled its WaitGroup can still be exiting
// when the call that waited on it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}
