package main

import (
	"time"

	"lasthop"
)

// simParams sizes the sim-year workload: the paper's own experiment, through
// the root facade only. No sockets, no host, no pubsub server — it is the
// workload every wire/host/pubsub optimisation must leave unmoved.
type simParams struct {
	seed    uint64
	seeds   int           // scenarios: seed … seed+seeds-1
	horizon time.Duration // virtual time per run; one year for gated runs
	window  time.Duration // keep repeating the fixed work until this has passed
	// fullPass makes the run finish its first pass over every scenario and
	// preset even if the window has passed: the gated waste and loss are
	// then always means over the same fixed work.
	fullPass bool
	setups   int
	report   []metricDef // the metric list this process prints, for the deadline's result line
}

const simTopic = "sim/topic"

// simPresets are the five policy presets, each compared against the on-line
// baseline of the same scenario.
var simPresets = []struct {
	name   string
	config lasthop.TopicConfig
}{
	{"online", lasthop.OnlineConfig(simTopic)},
	{"ondemand", lasthop.OnDemandConfig(simTopic, 8)},
	{"buffer", lasthop.BufferConfig(simTopic, 8, 32)},
	{"rate", lasthop.RateConfig(simTopic, 8)},
	{"unified", lasthop.UnifiedConfig(simTopic, 8)},
}

type simSample struct {
	at        time.Time
	cpu       time.Duration
	allocs    uint64
	compares  int64
	forwarded int64
	bytesDown int64
	events    int64
}

type simOutcome struct {
	setupS    float64
	samples   []simSample // slice edges actually reached
	compare   [slices]hist
	wastePct  float64 // unified preset, mean over the scenarios
	lossPct   float64
	attempted int64
	failed    int64
}

func generateScenarios(p simParams) ([]lasthop.Scenario, error) {
	scs := make([]lasthop.Scenario, p.seeds)
	for i := range scs {
		cfg := lasthop.SimConfig{
			Seed:         p.seed + uint64(i),
			Horizon:      p.horizon,
			EventsPerDay: 32,
			ReadsPerDay:  2,
			Max:          8,
			Outage:       lasthop.OutageConfig{Fraction: 0.5},
		}
		sc, err := lasthop.NewScenario(cfg)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// runSim generates the scenarios (p.setups times, for setup_s), then runs
// every scenario under every preset, single-threaded, until the window has
// passed. The first pass is the fixed work whose waste, loss and invariants
// are reported; later passes only give the timing metrics ten full slices.
func runSim(p simParams) (*simOutcome, error) {
	out := &simOutcome{}
	var scs []lasthop.Scenario
	var err error
	out.setupS, err = timeSetups(p.setups, func() error {
		scs, err = generateScenarios(p)
		return err
	})
	if err != nil {
		return nil, err
	}

	watchdog := armDeadline(p.window+120*time.Second, p.report, func() (int64, int64) { return 1, 1 })
	defer watchdog.Stop()

	start := time.Now()
	sliceLen := p.window / slices
	cur := simSample{at: start, cpu: cpuTime(), allocs: heapAllocs()}
	out.samples = append(out.samples, cur)
	var wasteSum, lossSum float64
	var unified int
run:
	for pass := 0; ; pass++ {
		for _, sc := range scs {
			for _, preset := range simPresets {
				if len(out.samples) > slices && (pass > 0 || !p.fullPass) {
					break run
				}
				t0 := time.Now()
				cmp, err := lasthop.Compare(sc, preset.config)
				done := time.Now()
				if k := int(done.Sub(start) / sliceLen); k < slices {
					out.compare[k].add(int64(done.Sub(t0)))
				}
				cur.compares++
				if err == nil {
					cur.forwarded += int64(cmp.Baseline.Forwarded + cmp.Policy.Forwarded)
					cur.bytesDown += cmp.Baseline.Link.BytesDown + cmp.Policy.Link.BytesDown
					cur.events += 2 * int64(len(sc.Arrivals)+len(sc.Reads))
				}
				if pass == 0 {
					out.attempted++
					if err != nil || !simInvariants(preset.name, cmp) {
						out.failed++
					}
					if preset.name == "unified" {
						unified++
						wasteSum += cmp.WastePct
						lossSum += cmp.LossPct
					}
				}
				// Slice edges are read between comparisons: the workload
				// is one goroutine and stays one.
				for len(out.samples) <= slices && !done.Before(start.Add(time.Duration(len(out.samples))*sliceLen)) {
					cur.at, cur.cpu, cur.allocs = done, cpuTime(), heapAllocs()
					out.samples = append(out.samples, cur)
				}
			}
		}
	}
	out.wastePct = ratio(wasteSum, float64(unified))
	out.lossPct = ratio(lossSum, float64(unified))
	return out, nil
}

// simInvariants are true by definition of waste and loss (§3.1), whatever the
// policy code does: the baseline cannot lose against itself, a pure on-demand
// proxy transfers only what is about to be read, and both are percentages.
func simInvariants(preset string, c lasthop.Comparison) bool {
	if c.WastePct < 0 || c.WastePct > 100 || c.LossPct < 0 || c.LossPct > 100 {
		return false
	}
	switch preset {
	case "online":
		return c.LossPct == 0
	case "ondemand":
		return c.WastePct == 0
	}
	return true
}
