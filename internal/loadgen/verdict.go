package loadgen

import (
	"fmt"

	"lasthop/internal/trace"
)

// Budget declares the trace-outcome envelope a scenario must stay inside.
// It is evaluated against the report's collector accounting (every atlas
// scenario samples at 100%), so each ceiling is a statement about every
// notification the run published, not a statistical estimate. The zero
// value is the strictest budget: nothing lost, nothing wasted, nothing
// duplicated.
type Budget struct {
	// MaxLost bounds the "lost" terminal outcome. The atlas pins this at
	// zero everywhere: a scenario that loses a notification has found a
	// bug, never acceptable load-shedding.
	MaxLost int `json:"maxLost"`
	// MaxDuplicates bounds device-observed duplicate deliveries (a push
	// or read of an ID the device already held or consumed).
	MaxDuplicates int `json:"maxDuplicates"`
	// MaxWastePct bounds §3.1 waste among sampled traces: transfers the
	// user never read, as a percentage of all last-hop transfers.
	MaxWastePct float64 `json:"maxWastePct"`
	// MinReadPct, when positive, requires at least this percentage of
	// sampled traces to terminate in a user read — a floor that catches a
	// scenario quietly delivering nothing while "losing" nothing.
	MinReadPct float64 `json:"minReadPct,omitempty"`
	// MinExpiredPct, when positive, requires at least this percentage of
	// sampled traces to retire before transfer. The rank-storm scenario
	// uses it to prove retractions actually drove the delay stage.
	MinExpiredPct float64 `json:"minExpiredPct,omitempty"`
	// HopP99Ms bounds the per-hop p99 latency (milliseconds) for the
	// named segments of the delivery path ("broker", "proxyQueue",
	// "lastHop"). A listed segment with no observations fails the budget.
	HopP99Ms map[string]float64 `json:"hopP99Ms,omitempty"`
	// MinDeliverPerSec, when positive, is a throughput floor on the run's
	// end-to-end delivery rate (distinct deliveries / elapsed seconds).
	// The flash-crowd scenario pins it so a datapath regression that
	// serializes the burst — even one that loses nothing — fails loudly.
	MinDeliverPerSec float64 `json:"minDeliverPerSec,omitempty"`
	// CapPerDevice, when positive, is the scenario's daily on-line cap:
	// after the quiet-window release the runner asserts, from the trace
	// timelines, that each session charged exactly
	// min(cap, published-to-its-topic) on-line deliveries against the cap
	// and staged the rest.
	CapPerDevice int `json:"capPerDevice,omitempty"`
}

// Verdict is the machine-readable outcome of one scenario run: the budget
// comparison plus the numbers it was computed from. scripts/check_scenarios.sh
// archives these as the CI artifact.
type Verdict struct {
	Scenario string `json:"scenario"`
	Pass     bool   `json:"pass"`
	// Failures lists every budget violation; empty when Pass.
	Failures []string `json:"failures,omitempty"`

	Sampled    uint64            `json:"sampled"`
	Outcomes   map[string]uint64 `json:"outcomes"`
	Lost       uint64            `json:"lost"`
	WastePct   float64           `json:"wastePct"`
	Duplicates int               `json:"duplicates"`
	Delivered  int               `json:"delivered"`
	// DeliverPerSec is the measured end-to-end delivery rate, recorded
	// whenever the report carries one so throughput trends survive in the
	// archived verdicts even without a MinDeliverPerSec floor.
	DeliverPerSec float64            `json:"deliverPerSec,omitempty"`
	HopP99Ms      map[string]float64 `json:"hopP99Ms,omitempty"`
	// Hops carries the measured per-hop latency quantiles for every
	// observed segment — the actuals behind the pass/fail, present even
	// when the budget names no hop, so a regression that stays inside
	// the envelope is still visible in the archived verdict.
	Hops           map[string]trace.HopQuantiles `json:"hops,omitempty"`
	ElapsedSeconds float64                       `json:"elapsedSeconds"`
}

// Evaluate compares a finished report against the budget. extra carries
// runner-side failures the report cannot express (cap assertions, drain
// errors); they fail the verdict like any budget violation.
func (b Budget) Evaluate(scenario string, rep *Report, extra []string) Verdict {
	v := Verdict{
		Scenario:   scenario,
		Sampled:    rep.TraceSampled,
		Outcomes:   rep.TraceOutcomes,
		Lost:       rep.TraceOutcomes[string(trace.OutcomeLost)],
		WastePct:   rep.WastePct,
		Duplicates: rep.Duplicates,
		Delivered:  rep.Delivered,
		Failures:   append([]string(nil), extra...),
	}
	v.DeliverPerSec = rep.DeliverPerSec
	if len(rep.HopLatencyMs) > 0 {
		v.Hops = make(map[string]trace.HopQuantiles, len(rep.HopLatencyMs))
		for hop, q := range rep.HopLatencyMs {
			v.Hops[hop] = q
		}
	}
	fail := func(format string, args ...any) {
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}
	if rep.TraceConservation != "" {
		fail("trace conservation violated: %s", rep.TraceConservation)
	}
	if v.Lost > uint64(b.MaxLost) {
		fail("lost %d notifications, budget %d", v.Lost, b.MaxLost)
	}
	if v.Duplicates > b.MaxDuplicates {
		fail("%d duplicate deliveries, budget %d", v.Duplicates, b.MaxDuplicates)
	}
	if v.WastePct > b.MaxWastePct {
		fail("waste %.2f%%, budget %.2f%%", v.WastePct, b.MaxWastePct)
	}
	if v.Sampled > 0 {
		readPct := float64(rep.TraceOutcomes[string(trace.OutcomeRead)]) / float64(v.Sampled) * 100
		if b.MinReadPct > 0 && readPct < b.MinReadPct {
			fail("only %.1f%% of traces read, floor %.1f%%", readPct, b.MinReadPct)
		}
		expPct := float64(rep.TraceOutcomes[string(trace.OutcomeExpired)]) / float64(v.Sampled) * 100
		if b.MinExpiredPct > 0 && expPct < b.MinExpiredPct {
			fail("only %.1f%% of traces expired pre-transfer, floor %.1f%%", expPct, b.MinExpiredPct)
		}
	}
	if b.MinDeliverPerSec > 0 && rep.DeliverPerSec < b.MinDeliverPerSec {
		fail("delivered %.0f/s end to end, floor %.0f/s", rep.DeliverPerSec, b.MinDeliverPerSec)
	}
	if len(b.HopP99Ms) > 0 {
		v.HopP99Ms = make(map[string]float64, len(b.HopP99Ms))
		for hop, limit := range b.HopP99Ms {
			q, ok := rep.HopLatencyMs[hop]
			if !ok || q.N == 0 {
				fail("hop %q has no latency observations", hop)
				continue
			}
			v.HopP99Ms[hop] = q.P99
			if q.P99 > limit {
				fail("hop %q p99 %.1fms, budget %.1fms", hop, q.P99, limit)
			}
		}
	}
	v.Pass = len(v.Failures) == 0
	return v
}

// finishTraces folds the collector's terminal accounting into the report:
// the outcome tally, §3.1 waste among the sampled traces, the per-hop
// latency decomposition, and the conservation check (with full sampling,
// every sampled notification must map to exactly one terminal outcome —
// a mismatch is reported, never papered over). Call after FinishActive.
func finishTraces(rep *Report, collector *trace.Collector) {
	if collector == nil {
		return
	}
	st := collector.Stats()
	rep.TraceSampled = st.Sampled
	rep.TraceOutcomes = make(map[string]uint64, len(st.Outcomes))
	var total uint64
	for o, c := range st.Outcomes {
		rep.TraceOutcomes[string(o)] = c
		total += c
	}
	if read, wasted := st.Outcomes[trace.OutcomeRead], st.Outcomes[trace.OutcomeWasted]; read+wasted > 0 {
		rep.WastePct = float64(wasted) / float64(read+wasted) * 100
	}
	switch {
	case st.Outcomes[trace.Outcome("")] > 0:
		rep.TraceConservation = fmt.Sprintf("%d traces completed without a terminal outcome", st.Outcomes[trace.Outcome("")])
	case rep.Config.TraceSample >= 1 && total != st.Sampled:
		// Below full sampling, anomaly-opened traces make the comparison
		// meaningless; at 100% the books must balance exactly.
		rep.TraceConservation = fmt.Sprintf("outcomes cover %d traces, sampled %d", total, st.Sampled)
	}
	rep.HopLatencyMs = trace.Summarize(collector.Completed()).Hops
	rep.Collector = collector
}
