// Command bench is the repository's benchmark: four named workloads, every
// metric printed by name with its unit, every output checked. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench --workload unicast-steady --seed 1 --seconds 20 --trace 0
//	go run ./bench --agree 5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	// Exploration overrides; an overridden run is reported as such and
	// is not comparable with a gated one.
	rate   float64
	window int

	// lagLimitMs is how late the open-loop generator may run (p95) before
	// the run measures the generator instead of the system and is declared
	// invalid.
	lagLimitMs float64

	// Scale, reduced only by the smoke tests: set-up repetitions,
	// simulations, and operations per direct probe.
	setups     int
	simSeeds   int
	simHorizon time.Duration
	probeOps   int
}

// gated is the scale every gated run uses.
func gated(o options) options {
	o.lagLimitMs = 5
	o.setups, o.simSeeds, o.simHorizon, o.probeOps = 21, 40, 365*24*time.Hour, 100000
	return o
}

func main() {
	var o options
	var trace, agree int
	flag.StringVar(&o.workload, "workload", "", "one of "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.rate, "rate", 0, "exploration only: override an open-loop workload's publishes/s")
	flag.IntVar(&o.window, "window", 0, "exploration only: override a closed-loop workload's in-flight batches per connection")
	flag.IntVar(&agree, "agree", 0, "run two interleaved sets of N runs per workload and check they agree within BENCHMARK.json's bounds")
	flag.Parse()
	o.traced = trace != 0
	o = gated(o)

	if agree > 0 {
		os.Exit(runAgree(agree, o))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	emit(os.Stdout, o.metrics(), res)
}

// metrics is the list a run with these options prints.
func (o options) metrics() []metricDef {
	if o.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// lagValid reports whether the open-loop generator kept to its schedule. A
// run in which it did not has measured the box, not the system: it still
// prints its numbers, but as an incorrect run, never as a slow one.
func (o options) lagValid(out *liveOutcome) bool {
	lag := out.lagP95Ms()
	if lag <= o.lagLimitMs {
		return true
	}
	fmt.Printf("INVALID run: generator lag p95 %.2f ms exceeds %g ms; the box, not the system, was measured\n", lag, o.lagLimitMs)
	return false
}

// run executes one workload. An error means there is no result: bad
// arguments or a set-up failure.
func run(o options) (result, error) {
	defs := o.metrics()
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// A traced run measures twice — tracing off, then on — so that the
		// difference is the tracing overhead; each half gets half the time.
		window /= 2
	}
	fmt.Printf("environment %+v\n", readEnvironment())

	if o.workload == simYear {
		return runSimWorkload(o, defs, window)
	}
	sp := findSpec(o.workload)
	if sp == nil {
		return result{}, fmt.Errorf("unknown --workload %q; have %v", o.workload, workloadNames())
	}
	if o.rate > 0 || o.window > 0 {
		c := *sp
		if o.rate > 0 && c.openLoop() {
			c.rate = o.rate
		}
		if o.window > 0 && !c.openLoop() {
			c.window = o.window
		}
		sp = &c
		fmt.Printf("OVERRIDDEN load: rate=%g window=%d — not comparable with a gated run\n", c.rate, c.window)
	}
	p := liveParams{
		seed:   o.seed,
		warm:   min(window/10, 3*time.Second),
		window: window,
		setups: o.setups,
		drain:  10 * time.Second,
		report: defs,
	}
	plain, err := runLive(sp, p)
	if err != nil {
		return result{}, err
	}
	valid := o.lagValid(plain)
	if !o.traced {
		plain.printSlices(os.Stderr)
		res := newResult(defs, plain.endToEnd(), plain.attempted, plain.failed)
		res.Correct = res.Correct && valid
		return res, nil
	}

	p.traced, p.setups = true, 1
	traced, err := runLive(sp, p)
	if err != nil {
		return result{}, err
	}
	valid = o.lagValid(traced) && valid
	// The last hop's observed notifications per frame sizes the codec probe.
	batch := 1
	if traced.devFrames > 0 {
		batch = int(float64(traced.received)/float64(traced.devFrames) + 0.5)
	}
	probes, err := runLiveProbes(sp, o.seed, o.probeOps, batch, int(traced.depthP95))
	if err != nil {
		return result{}, err
	}
	values := traced.perLayer(plain, probes)
	failed := plain.failed + traced.failed
	// The two byte counts are taken at opposite ends of the same sockets.
	if d := traced.hostBytes - traced.devBytes; abs64(d)*100 > traced.devBytes {
		fmt.Printf("last-hop bytes disagree: host wrote %d, devices read %d\n", traced.hostBytes, traced.devBytes)
		failed++
	}
	if values["trace.overhead_share"] >= 0.10 {
		fmt.Printf("WARNING trace.overhead_share %.3f ≥ 0.10: do not trust this run's ledger\n", values["trace.overhead_share"])
	}
	res := newResult(defs, values, plain.attempted+traced.attempted, failed)
	res.Correct = res.Correct && valid
	return res, nil
}

func runSimWorkload(o options, defs []metricDef, window time.Duration) (result, error) {
	p := simParams{
		seed: o.seed, seeds: o.simSeeds, horizon: o.simHorizon,
		window: window, fullPass: !o.traced, setups: o.setups, report: defs,
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := runSim(p)
	if err != nil {
		return result{}, err
	}
	if !o.traced {
		return newResult(defs, plain.endToEnd(), plain.attempted, plain.failed), nil
	}
	// The simulator has nothing to switch on: its "traced" half repeats the
	// run so that overhead_share reads the box's noise, and adds the probes.
	p.setups = 1
	traced, err := runSim(p)
	if err != nil {
		return result{}, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	probes, err := runSimProbes(o.seed, o.probeOps)
	if err != nil {
		return result{}, err
	}
	values := traced.perLayer(plain, probes,
		float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, after.NumGC-before.NumGC, runtime.NumGoroutine())
	return newResult(defs, values, plain.attempted+traced.attempted, plain.failed+traced.failed), nil
}
