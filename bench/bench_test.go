package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// These are smoke tests at ~300 ms scale with no wall-clock assertions: they
// exist so that a change which breaks an API the benchmark stands on, or which
// makes a workload lose or duplicate output, fails tier-1 instead of silently
// costing the repository its ruler.

func smoke(workload string, traced bool) options {
	return options{
		workload: workload, seed: 7, traced: traced,
		seconds:    map[bool]float64{false: 0.3, true: 0.6}[traced],
		lagLimitMs: 1e9, // a loaded test box is not an invalid run
		setups:     2, simSeeds: 2, simHorizon: 30 * 24 * time.Hour, probeOps: 4000,
	}
}

func names(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, bench runs %v", workloads, workloadNames())
	}
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(declared, names(endToEndMetrics)) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, bench prints %v", declared, names(endToEndMetrics))
	}
	declared = map[string]string{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(declared, names(perLayerMetrics)) {
		t.Errorf("per_layer: BENCHMARK.json has %v, bench prints %v", declared, names(perLayerMetrics))
	}
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	var got, want []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	for _, d := range defs {
		want = append(want, d.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("printed metrics %v, want %v", got, want)
	}
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted %d, failed %d, correct %v; want failed_share 0", res.Attempted, res.Failed, res.Correct)
	}
}

func TestEveryWorkloadUntraced(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res, err := run(smoke(w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v; an end-to-end metric is never 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
}

// A traced run fails itself (failed > 0) when fewer than 99.9 % of on-line
// deliveries carry every ledger stamp or when the host-side and device-side
// last-hop byte counts differ by more than 1 %, so checkResult covers both.
func TestEveryWorkloadTraced(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res, err := run(smoke(w, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerMetrics)
			sp := findSpec(w)
			if sp != nil && sp.online() {
				if share := res.Metrics["trace.stamped_share"].Value; share < 0.999 {
					t.Errorf("trace.stamped_share = %v, want ≥ 0.999", share)
				}
			}
			if sp != nil && res.Metrics["wire.lasthop_writes_per_delivery"].Value <= 0 {
				t.Error("wire.lasthop_writes_per_delivery = 0 on a live workload")
			}
			if sp == nil && res.Metrics["wire.lasthop_writes_per_delivery"].Value != 0 {
				t.Error("sim-year touched the wire")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	q1, q2, q3 := quartiles([]float64{11, 1, 7, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 9 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 9", q1, q2, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.95, 0.999} {
		want := q * 100000 * 1000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v ± 1 %%", q, got, want)
		}
	}
}

func TestScheduleNeverThins(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 1000, time.Second)
	// Two seconds late: everything is due, handed out 64 at a time, in order.
	var next uint64
	for {
		first, n, _, done := s.claim(start.Add(2*time.Second), 64)
		if done {
			break
		}
		if first != next || n == 0 {
			t.Fatalf("claim returned first %d n %d, want first %d", first, n, next)
		}
		next += uint64(n)
	}
	if next != 1000 {
		t.Errorf("schedule handed out %d notifications, want 1000", next)
	}
	if _, n, next, _ := newSchedule(start, 1000, time.Second).claim(start.Add(-time.Millisecond), 64); n != 0 || !next.Equal(start) {
		t.Errorf("before the start: n %d next %v, want 0 and the start", n, next)
	}
}
