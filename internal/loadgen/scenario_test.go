package loadgen

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/obs"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// runAtlasScenario executes one atlas entry at CI scale and applies the
// conservation oracle every scenario must satisfy regardless of its own
// budget: the verdict passes, every sampled trace reached exactly one
// terminal outcome, and the waste accounting is well-formed. reg, when
// set, receives the run's metric families.
//
// A failed run leaves its flight bundle in LASTHOP_BUNDLE_DIR, or else in
// a directory that is kept only when the test fails; the test logs where.
func runAtlasScenario(t *testing.T, name string, reg *obs.Registry) *Report {
	t.Helper()
	sc, err := FindScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	// The budget's throughput floor is a wall-clock gate: on a loaded box
	// it measures the box, not the datapath. Unit runs gate counts
	// instead (TestScenarioFlashCrowd); scripts/check_scenarios.sh still
	// applies the floor.
	sc.Budget.MinDeliverPerSec = 0
	rep, err := RunScenario(sc, ScenarioOptions{
		Timeout:   90 * time.Second,
		Logf:      t.Logf,
		Registry:  reg,
		BundleDir: bundleDir(t),
	})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	v := rep.Verdict
	if v == nil {
		t.Fatalf("scenario %s: no verdict on the report", name)
	}
	if !v.Pass {
		t.Errorf("scenario %s verdict failed:\n  %s", name, strings.Join(v.Failures, "\n  "))
	}

	// Conservation under churn: with 100%% sampling the outcome tally
	// must cover every sampled notification exactly once — reconnects,
	// remaps, and partitions may shuffle *which* outcome, never the sum.
	if rep.TraceConservation != "" {
		t.Errorf("scenario %s: conservation violated: %s", name, rep.TraceConservation)
	}
	var total uint64
	for o, c := range rep.TraceOutcomes {
		if o == "" {
			t.Errorf("scenario %s: %d traces completed without a terminal outcome", name, c)
		}
		total += c
	}
	if total != rep.TraceSampled {
		t.Errorf("scenario %s: outcomes cover %d traces, sampled %d", name, total, rep.TraceSampled)
	}
	if uint64(rep.Published) != rep.TraceSampled {
		t.Errorf("scenario %s: published %d but sampled %d", name, rep.Published, rep.TraceSampled)
	}
	if rep.WastePct < 0 || rep.WastePct > 100 {
		t.Errorf("scenario %s: waste %.2f%% out of range", name, rep.WastePct)
	}
	if st := rep.Collector.Stats(); st.Active != 0 {
		t.Errorf("scenario %s: %d traces still active after FinishActive", name, st.Active)
	}
	return rep
}

// bundleDir is where a scenario test's flight bundles go:
// LASTHOP_BUNDLE_DIR when set, else a fresh directory that is removed when
// the test passes and kept, with its path logged, when it fails.
func bundleDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("LASTHOP_BUNDLE_DIR"); dir != "" {
		return dir
	}
	dir, err := os.MkdirTemp("", "lasthop-bundle-"+strings.ReplaceAll(t.Name(), "/", "_")+"-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("flight bundles kept in %s", dir)
			return
		}
		_ = os.RemoveAll(dir)
	})
	return dir
}

// TestScenarioFlashCrowd gates the fan-out datapath with counts, which a
// loaded box cannot move, where scripts/check_scenarios.sh gates its
// throughput: the broker encodes each published notification once, and
// the last hop carries every delivery in one push frame with coalesced
// writes.
func TestScenarioFlashCrowd(t *testing.T) {
	// A buffer still held by an earlier test's connection could release
	// a shared reference inside this run's window; wait until no buffer
	// is outstanding.
	for deadline := time.Now().Add(2 * time.Second); burst.Bufs.Outstanding() != 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	reg := obs.NewRegistry()
	before := burst.Bufs.Stats()
	rep := runAtlasScenario(t, "flash-crowd", reg)
	after := burst.Bufs.Stats()
	if rep.Verdict.Lost != 0 {
		t.Errorf("flash crowd lost %d notifications", rep.Verdict.Lost)
	}
	wm := wire.NewMetrics(reg)
	frames, writes := wm.BatchSize.Count(), wm.FlushFrames.Count()
	t.Logf("flash crowd: %d published, %d delivered, %d shared releases, %d push frames carrying %.0f notifications, %d writes",
		rep.Published, rep.Delivered, after.SharedPuts-before.SharedPuts, frames, wm.BatchSize.Sum(), writes)

	// The host takes each topic from the broker on one connection, so
	// every fan-out is one memo reference and one egress reference: one
	// shared release per notification means the frame was encoded once
	// and shared, not encoded per target.
	if shared := after.SharedPuts - before.SharedPuts; shared != int64(rep.Published) {
		t.Errorf("%d shared frame releases for %d published notifications, want one each", shared, rep.Published)
	}
	if rep.Delivered == 0 {
		t.Fatal("flash crowd delivered nothing")
	}
	delivered := float64(rep.Delivered)
	// Every delivery rides a last-hop push frame, and a frame carries one
	// or more: more frames than deliveries means pushes that delivered
	// nothing.
	if per := float64(frames) / delivered; per <= 0 || per > 1 {
		t.Errorf("%.3f last-hop push frames per delivery, want in (0, 1]", per)
	}
	// Writes cover every connection of the topology: publishes, acks,
	// the broker-to-host pushes and the last hop. The egress rings batch
	// them; a flush per frame would need more than one per delivery.
	if per := float64(writes) / delivered; per <= 0 || per > 1 {
		t.Errorf("%.3f socket writes per delivery, want in (0, 1]", per)
	}
}

func TestScenarioMassReconnect(t *testing.T) {
	rep := runAtlasScenario(t, "mass-reconnect", nil)
	// The herd must exercise the machinery it exists to stress.
	if got := rep.Collector.Stats(); got.Sampled == 0 {
		t.Fatal("mass reconnect sampled nothing")
	}
}

func TestScenarioRankStorm(t *testing.T) {
	rep := runAtlasScenario(t, "rank-storm", nil)
	if rep.TraceOutcomes[string(trace.OutcomeExpired)] == 0 {
		t.Error("rank storm retired nothing: revisions never reached the delay stage")
	}
}

func TestScenarioRemapChurn(t *testing.T) {
	runAtlasScenario(t, "remap-churn", nil)
}

// quiet-flood is exercised by scripts/check_scenarios.sh: its release
// waits for a real wall-clock minute boundary (up to ~80s), too slow for
// the unit suite.

// TestBudgetEvaluate drives the verdict arithmetic on synthetic reports,
// one violation per case.
func TestBudgetEvaluate(t *testing.T) {
	base := func() *Report {
		return &Report{
			Config:       Config{TraceSample: 1},
			TraceSampled: 100,
			TraceOutcomes: map[string]uint64{
				string(trace.OutcomeRead):   90,
				string(trace.OutcomeWasted): 10,
			},
			WastePct:     10,
			Duplicates:   2,
			HopLatencyMs: map[string]trace.HopQuantiles{"lastHop": {N: 100, P99: 40}},
		}
	}
	cases := []struct {
		name   string
		budget Budget
		mutate func(*Report)
		extra  []string
		want   string // substring of the sole expected failure; "" = pass
	}{
		{
			name:   "pass",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinReadPct: 80, HopP99Ms: map[string]float64{"lastHop": 50}},
		},
		{
			name:   "lost over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			mutate: func(r *Report) { r.TraceOutcomes[string(trace.OutcomeLost)] = 3 },
			want:   "lost 3 notifications, budget 0",
		},
		{
			name:   "duplicates over budget",
			budget: Budget{MaxDuplicates: 1, MaxWastePct: 15},
			want:   "2 duplicate deliveries, budget 1",
		},
		{
			name:   "waste over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 5},
			want:   "waste 10.00%, budget 5.00%",
		},
		{
			name:   "read floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinReadPct: 95},
			want:   "only 90.0% of traces read",
		},
		{
			name:   "expired floor",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, MinExpiredPct: 20},
			want:   "only 0.0% of traces expired",
		},
		{
			name:   "hop over budget",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, HopP99Ms: map[string]float64{"lastHop": 10}},
			want:   `hop "lastHop" p99 40.0ms, budget 10.0ms`,
		},
		{
			name:   "hop unobserved",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15, HopP99Ms: map[string]float64{"proxyQueue": 10}},
			want:   `hop "proxyQueue" has no latency observations`,
		},
		{
			name:   "conservation violation",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			mutate: func(r *Report) { r.TraceConservation = "outcomes cover 99 traces, sampled 100" },
			want:   "trace conservation violated",
		},
		{
			name:   "runner-side failure",
			budget: Budget{MaxDuplicates: 5, MaxWastePct: 15},
			extra:  []string{"device sc-dev-3 received 4 on-line pushes after the quiet release, want 3 (cap 3)"},
			want:   "device sc-dev-3 received 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			if tc.mutate != nil {
				tc.mutate(rep)
			}
			v := tc.budget.Evaluate("synthetic", rep, tc.extra)
			if tc.want == "" {
				if !v.Pass {
					t.Fatalf("want pass, got failures %v", v.Failures)
				}
				return
			}
			if v.Pass {
				t.Fatalf("want failure %q, got pass", tc.want)
			}
			if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], tc.want) {
				t.Fatalf("want sole failure containing %q, got %v", tc.want, v.Failures)
			}
		})
	}
}

// TestAtlasWellFormed keeps every atlas entry self-consistent without
// running it: unique names, a documented failure mode, a zero lost
// budget, at least one publishing phase, a spool under every host kill,
// and remap waves that never empty a topic. RunScenario itself rejects a
// kill without a spool before any topology starts.
func TestAtlasWellFormed(t *testing.T) {
	bad := Scenario{Name: "kill-no-spool", Devices: 1, Topics: 1, Phases: []Phase{{Name: "crash", KillRestart: true}}}
	if _, err := RunScenario(bad, ScenarioOptions{}); !errors.Is(err, ErrKillWithoutSpool) {
		t.Errorf("RunScenario(KillRestart without Spool) = %v, want ErrKillWithoutSpool", err)
	}

	seen := map[string]bool{}
	for _, sc := range Atlas() {
		if sc.Name == "" || seen[sc.Name] {
			t.Errorf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Description == "" || sc.FailureMode == "" {
			t.Errorf("scenario %s: missing description or failure mode", sc.Name)
		}
		if sc.Budget.MaxLost != 0 {
			t.Errorf("scenario %s: MaxLost %d — the atlas never budgets for loss", sc.Name, sc.Budget.MaxLost)
		}
		if sc.Devices < 1 || sc.Topics < 1 || len(sc.Phases) == 0 {
			t.Errorf("scenario %s: degenerate shape", sc.Name)
		}
		published := false
		for _, ph := range sc.Phases {
			if ph.PublishMean > 0 {
				published = true
			}
		}
		if !published {
			t.Errorf("scenario %s: no phase publishes anything", sc.Name)
		}
		if sc.killsHost() && !sc.Spool {
			t.Errorf("scenario %s: kills the host without a spool", sc.Name)
		}
		if _, err := FindScenario(sc.Name); err != nil {
			t.Errorf("FindScenario(%s): %v", sc.Name, err)
		}
		// Scale 1 is the unit suite's size, 6 the full-size run.
		for _, scale := range []float64{1, 6} {
			checkRemapWaves(t, sc, scale)
		}
	}
}

// checkRemapWaves replays every remap phase of sc at the given scale
// through remapWaves, with the whole population connected. A wave must
// leave each topic it takes devices from a subscriber that is not moving
// in it (else a publish in that window reaches no one), and every victim
// must move exactly once.
func checkRemapWaves(t *testing.T, sc Scenario, scale float64) {
	t.Helper()
	n := int(float64(sc.Devices)*scale + 0.5)
	topicOf := make([]int, n)
	for i := range topicOf {
		topicOf[i] = i % sc.Topics
	}
	for _, ph := range sc.Phases {
		if ph.RemapPct <= 0 {
			continue
		}
		var victims []int
		for i := 0; i < n && float64(len(victims)) < ph.RemapPct*float64(n); i++ {
			victims = append(victims, i)
		}
		subs := make([]int, sc.Topics)
		for _, topic := range topicOf {
			subs[topic]++
		}
		moves := make(map[int]int)
		for w, wave := range remapWaves(topicOf, victims, sc.Topics) {
			leaving := make([]int, sc.Topics)
			for _, v := range wave {
				leaving[topicOf[v]]++
				moves[v]++
			}
			for topic, l := range leaving {
				if l > 0 && l >= subs[topic] {
					t.Errorf("%s x%g phase %s wave %d moves all %d subscribers off topic %d",
						sc.Name, scale, ph.Name, w, subs[topic], topic)
				}
			}
			for _, v := range wave {
				subs[topicOf[v]]--
				topicOf[v] = (topicOf[v] + 1) % sc.Topics
				subs[topicOf[v]]++
			}
		}
		for _, v := range victims {
			if moves[v] != 1 {
				t.Errorf("%s x%g phase %s: device %d moves %d times, want 1", sc.Name, scale, ph.Name, v, moves[v])
			}
		}
	}
}

// TestScenarioErrorNamesScenarioOnce: an error RunScenario returns names
// the scenario exactly once, whether the topology raised it before any
// phase ran (a subscription the host refuses) or the up-front spool check
// did.
func TestScenarioErrorNamesScenarioOnce(t *testing.T) {
	for _, sc := range []Scenario{
		{Name: "bad-mode", Devices: 1, Topics: 1, Policy: wire.TopicPolicy{Mode: "sideways"},
			Phases: []Phase{{Name: "never", PublishMean: 1}}},
		{Name: "kill-no-spool", Devices: 1, Topics: 1, Phases: []Phase{{Name: "crash", KillRestart: true}}},
	} {
		_, err := RunScenario(sc, ScenarioOptions{Timeout: 10 * time.Second})
		if err == nil {
			t.Fatalf("%s: RunScenario succeeded", sc.Name)
		}
		if n := strings.Count(err.Error(), "scenario "+sc.Name); n != 1 {
			t.Errorf("%s: error names the scenario %d times: %v", sc.Name, n, err)
		}
	}
}

// TestScenarioPhaseTimeoutLeavesBundle: a phase that runs into the
// scenario deadline returns its error and leaves a flight bundle whose
// goroutine stacks show the topology as it was stuck. The phase waits
// for a detached session to hibernate in a scenario without a spool, so
// it can only time out.
func TestScenarioPhaseTimeoutLeavesBundle(t *testing.T) {
	sc := Scenario{Name: "stuck", Devices: 1, Topics: 1,
		Phases: []Phase{{Name: "never-hibernates", DisconnectPct: 1, AwaitHibernate: true}}}
	dir := t.TempDir()
	_, err := RunScenario(sc, ScenarioOptions{Timeout: time.Second, Logf: t.Logf, BundleDir: dir})
	if err == nil || !strings.Contains(err.Error(), "phase never-hibernates: timeout") {
		t.Fatalf("RunScenario = %v, want the phase's timeout", err)
	}
	stacks, err := filepath.Glob(filepath.Join(dir, "*", "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 1 {
		t.Fatalf("bundles with goroutines.txt: %v, want one", stacks)
	}
	t.Logf("bundle at %s", filepath.Dir(stacks[0]))
}
