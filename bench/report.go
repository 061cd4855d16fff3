package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"time"
)

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult pairs measured values with the declared metric list: every
// declared name is present (0 when the workload bypasses that layer), nothing
// undeclared gets through, and a non-finite value marks the run incorrect.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	res.Correct = failed == 0 && attempted > 0
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// emit prints every metric by name with its unit, then the result line.
func emit(w io.Writer, defs []metricDef, res result) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode result:", err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// armDeadline is every run's hard wall-clock cap. If it fires, all
// goroutines are dumped to stderr, everything not known to be done is reported
// as failed on a result line, and the process ends: a hang is a counted
// failure, never a stuck run.
func armDeadline(d time.Duration, defs []metricDef, counts func() (attempted, failed int64)) *time.Timer {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "bench: hard deadline of %v passed; goroutines:\n", d)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		attempted, failed := counts()
		emit(os.Stdout, defs, newResult(defs, nil, max(attempted, 1), max(failed, 1)))
		os.Exit(0)
	})
}

// timeSetups runs a workload's set-up n times, keeping what the last one
// built, and returns the median duration in seconds: setup_s.
func timeSetups(n int, build func() error) (float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took), nil
}

// sliceRates turns the slice-edge samples into per-slice deliveries/s and
// CPU µs per delivery, skipping slices in which nothing was delivered.
func (o *liveOutcome) sliceRates() (perSec, cpuUs []float64) {
	for k := 0; k < slices; k++ {
		a, b := o.samples[k], o.samples[k+1]
		dt := b.at.Sub(a.at).Seconds()
		dn := float64(b.delivered - a.delivered)
		if dt <= 0 || dn <= 0 {
			continue
		}
		perSec = append(perSec, dn/dt)
		cpuUs = append(cpuUs, float64(b.cpu-a.cpu)/1e3/dn)
	}
	return perSec, cpuUs
}

// sliceQuantiles is one quantile of each non-empty slice histogram, in ms.
func sliceQuantiles(hs [slices]*hist, q float64) []float64 {
	var out []float64
	for _, h := range hs {
		if h.n > 0 {
			out = append(out, h.quantile(q)/1e6)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd names what a live run's user would see. Every timing is one of the
// ten slice values: the median for an open loop, the best for a closed one.
func (o *liveOutcome) endToEnd() map[string]float64 {
	first, last := o.samples[0], o.samples[slices]
	delivered := float64(last.delivered - first.delivered)
	perSec, cpuUs := o.sliceRates()
	lower, higher := median, median
	if !o.sp.openLoop() {
		lower, higher = lowest, highest
	}
	m := map[string]float64{
		"setup_s":                    o.setupS,
		"latency_p50_ms":             lower(sliceQuantiles(o.lat, 0.50)),
		"throughput_per_s":           higher(perSec),
		"cpu_us_per_delivery":        lower(cpuUs),
		"allocs_per_delivery":        ratio(float64(last.allocs-first.allocs), delivered),
		"lasthop_bytes_per_delivery": ratio(float64(last.bytesIn-first.bytesIn), delivered),
		"peak_rss_mb":                peakRSSMB(),
	}
	if o.sp.online() {
		// On-line: the user is interrupted with every first-time
		// delivery, so only a duplicate is a wasted transfer and only a
		// missing delivery is a loss.
		m["useful_pct"] = 100 * ratio(float64(o.received), float64(o.received+o.duplicates))
		m["delivered_pct"] = 100 * ratio(math.Min(float64(o.received), float64(o.owed)), float64(o.owed))
	} else {
		m["useful_pct"] = 100 * ratio(float64(o.readTotal), float64(o.received))
		m["delivered_pct"] = 100 - o.lossPct
	}
	return m
}

// printSlices shows the ten slice values behind each median, so a reader can
// see a trend or an outlier slice that the median hides.
func (o *liveOutcome) printSlices(w io.Writer) {
	perSec, cpuUs := o.sliceRates()
	var steal []float64
	for k := 0; k < slices; k++ {
		a, b := o.samples[k], o.samples[k+1]
		steal = append(steal, ratio(float64(b.steal-a.steal)/100, b.at.Sub(a.at).Seconds()))
	}
	fmt.Fprintf(w, "slices: per_s %.0f\n        cpu_us %.2f\n        p50_ms %.3f\n        p75_ms %.3f\n        p95_ms %.3f\n        lag_p95_ms %.3f\n        stolen_cpus %.2f\n",
		perSec, cpuUs, sliceQuantiles(o.lat, 0.50), sliceQuantiles(o.lat, 0.75), sliceQuantiles(o.lat, 0.95), sliceQuantiles(o.lag, 0.95), steal)
}

// lagP95Ms is how late the open-loop generator ran: the median over slices
// of each slice's 95th-percentile lag.
func (o *liveOutcome) lagP95Ms() float64 { return median(sliceQuantiles(o.lag, 0.95)) }

// perLayer names the traced run's ledger. plain is the untraced reference run
// made just before it, probes the direct layer probes made just after.
func (o *liveOutcome) perLayer(plain *liveOutcome, pr *probeResult) map[string]float64 {
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	m := map[string]float64{
		"gen.lag_p95_ms":               o.lagP95Ms(),
		"gen.batch_mean":               o.batchMean,
		"wire.publish_rtt_p50_us":      us(o.rtt, 0.50),
		"wire.read_rtt_p50_us":         us(o.readRTT, 0.50),
		"pubsub.publish_ns_per_op":     pr.publishNs,
		"pubsub.route_ns_per_delivery": pr.routeNs,
		"wire.codec_ns_per_note":       pr.codecNs,
		"wire.codec_allocs_per_note":   pr.codecAllocs,
		"core.notify_ns_per_op":        pr.notifyNs,
		"core.read_us_per_op":          pr.readUs,
		"core.allocs_per_notify":       pr.notifyAllocs,
		"core.queue_depth_p95":         o.depthP95,
		"rankedq.push_ns_per_op":       pr.pushNs,
		"rankedq.take_ns_per_op":       pr.takeNs,
		"burst.pool_hit_rate":          o.pool.HitRate(),
		"burst.outstanding_after":      float64(o.outstanding),
		"runtime.gc_pause_ms":          o.gcPauseMs,
		"runtime.num_gc":               float64(o.numGC),
		"runtime.goroutines":           float64(o.goroutines),
		// Tails are read with tracing off, and never gated: on a shared
		// box they measure the neighbours (see README.md).
		"e2e.latency_p75_ms": median(sliceQuantiles(plain.lat, 0.75)),
		"e2e.latency_p95_ms": median(sliceQuantiles(plain.lat, 0.95)),
	}
	handed := float64(o.received)
	if !o.sp.online() {
		handed = float64(o.readTotal)
		m["core.useful_share"] = ratio(float64(o.readTotal), float64(o.received))
		m["e2e.read_p99_ms"] = plain.latAll.quantile(0.99) / 1e6
	} else {
		m["core.useful_share"] = ratio(float64(o.received), float64(o.received+o.duplicates))
		m["egress.p50_us"] = us(o.egress, 0.50)
		m["egress.p95_us"] = us(o.egress, 0.95)
		m["trace.stamped_share"] = ratio(float64(o.stamped), float64(o.total))
		// The residual: what the egress segment spends that no probe
		// accounts for — dispatch, wheel hand-off, ring wait, flush
		// syscalls, scheduling. Two codec passes: broker→host, host→device.
		probed := (pr.routeNs + 2*pr.codecNs + pr.notifyNs) / 1e3
		m["host.unattributed_us"] = m["egress.p50_us"] - probed
		m["host.unattributed_share"] = ratio(m["host.unattributed_us"], m["egress.p50_us"])
	}
	m["wire.lasthop_writes_per_delivery"] = ratio(float64(o.hostWrites), handed)
	m["wire.lasthop_bytes_per_write"] = ratio(float64(o.hostBytes), float64(o.hostWrites))

	// Overhead is the share by which tracing worsened the primary metric:
	// latency up, or (sign −1) throughput down.
	primary, sign := "latency_p50_ms", 1.0
	if o.sp.openLoop() {
		m["wire.ingress_p50_us"] = us(o.ingress, 0.50)
		m["wire.ingress_p95_us"] = us(o.ingress, 0.95)
		if o.sp.online() {
			m["e2e.deliver_p99_ms"] = plain.latAll.quantile(0.99) / 1e6
			m["e2e.deliver_p999_ms"] = plain.latAll.quantile(0.999) / 1e6
		}
	} else {
		// A closed loop's publish→device time is the depth of the queue it
		// keeps full (Little's law), not a latency; it is reported with
		// that depth so nobody reads it as one.
		m["e2e.saturated_p50_ms"] = plain.latAll.quantile(0.50) / 1e6
		m["e2e.inflight_depth"] = float64(o.sp.conns * o.sp.window * o.sp.batch * o.sp.fanout())
		primary, sign = "throughput_per_s", -1.0
	}
	traced, untraced := o.endToEnd()[primary], plain.endToEnd()[primary]
	m["trace.overhead_share"] = sign * ratio(traced-untraced, untraced)
	return m
}

// simRates is sliceRates for the simulator's samples: comparisons per second
// and CPU µs per simulated forward.
func (o *simOutcome) sliceRates() (perSec, cpuUs []float64) {
	for k := 0; k+1 < len(o.samples); k++ {
		a, b := o.samples[k], o.samples[k+1]
		dt := b.at.Sub(a.at).Seconds()
		dn := float64(b.forwarded - a.forwarded)
		if dt <= 0 || dn <= 0 {
			continue
		}
		perSec = append(perSec, float64(b.compares-a.compares)/dt)
		cpuUs = append(cpuUs, float64(b.cpu-a.cpu)/1e3/dn)
	}
	return perSec, cpuUs
}

func (o *simOutcome) compareQuantiles(q float64) []float64 {
	var hs [slices]*hist
	for k := range hs {
		hs[k] = &o.compare[k]
	}
	return sliceQuantiles(hs, q)
}

// endToEnd maps the simulator onto the same names: an operation is one
// policy-year comparison, a delivery one notification the simulated proxy
// forwarded across the simulated last hop. Fixed work, so the best slice.
func (o *simOutcome) endToEnd() map[string]float64 {
	first, last := o.samples[0], o.samples[len(o.samples)-1]
	forwarded := float64(last.forwarded - first.forwarded)
	perSec, cpuUs := o.sliceRates()
	return map[string]float64{
		"setup_s":                    o.setupS,
		"latency_p50_ms":             lowest(o.compareQuantiles(0.50)),
		"throughput_per_s":           highest(perSec),
		"cpu_us_per_delivery":        lowest(cpuUs),
		"allocs_per_delivery":        ratio(float64(last.allocs-first.allocs), forwarded),
		"lasthop_bytes_per_delivery": ratio(float64(last.bytesDown-first.bytesDown), forwarded),
		"peak_rss_mb":                peakRSSMB(),
		"useful_pct":                 100 - o.wastePct,
		"delivered_pct":              100 - o.lossPct,
	}
}

func (o *simOutcome) perLayer(plain *simOutcome, pr *probeResult, gcPauseMs float64, numGC uint32, goroutines int) map[string]float64 {
	first, last := o.samples[0], o.samples[len(o.samples)-1]
	m := map[string]float64{
		"sim.events_per_s":       ratio(float64(last.events-first.events), last.at.Sub(first.at).Seconds()),
		"sim.compare_ms_p50":     median(o.compareQuantiles(0.50)),
		"core.notify_ns_per_op":  pr.notifyNs,
		"core.read_us_per_op":    pr.readUs,
		"core.allocs_per_notify": pr.notifyAllocs,
		"core.useful_share":      1 - o.wastePct/100,
		"rankedq.push_ns_per_op": pr.pushNs,
		"rankedq.take_ns_per_op": pr.takeNs,
		"runtime.gc_pause_ms":    gcPauseMs,
		"runtime.num_gc":         float64(numGC),
		"runtime.goroutines":     float64(goroutines),
		"e2e.latency_p75_ms":     median(plain.compareQuantiles(0.75)),
		"e2e.latency_p95_ms":     median(plain.compareQuantiles(0.95)),
	}
	traced, untraced := o.endToEnd()["throughput_per_s"], plain.endToEnd()["throughput_per_s"]
	m["trace.overhead_share"] = -ratio(traced-untraced, untraced)
	return m
}
