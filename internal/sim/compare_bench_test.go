package sim

import (
	"testing"

	"lasthop/internal/core"
)

// BenchmarkCompareYear is one comparison of the sim-year benchmark: the
// unified policy against the on-line baseline over one virtual year at 50 %
// outage. The scenario replays without a scheduled event per input and
// hands each arrival straight to the proxy from one note slab per run, so
// nearly all of it is the proxy's and device's ranked queues and the timers
// the proxy arms. The two years run concurrently when GOMAXPROCS allows, so
// ns/op is the slower year's time plus the hand-off; run it with -cpu 1 for
// the serial sum. A read allocates nothing: the device and the replay loop
// reuse their offer and batch buffers, so the ~765 allocations are per-run
// growth (the proxy's tables and heaps, the device's ID map, the arrival
// IDs, the read set). CompareMany's slices, closure and goroutine add
// about 10 of them.
func BenchmarkCompareYear(b *testing.B) {
	cfg := goldenConfig(1, false)
	cfg.Horizon = Year
	sc, err := NewScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	policy := core.UnifiedConfig(TopicName, cfg.Max)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(sc, policy); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompareAllocs holds one 60-day unified comparison to an allocation
// budget: a count, not a timing, so it means the same on any machine. The
// replay itself allocates a fixed handful per run; a per-input closure,
// event or note copy would add thousands, and a per-read offer or batch
// slice about 240 each.
func TestCompareAllocs(t *testing.T) {
	const budget = 440
	cfg := goldenConfig(1, false)
	sc := mustScenario(t, cfg)
	policy := core.UnifiedConfig(TopicName, cfg.Max)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		_, err = Compare(sc, policy)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Errorf("%.0f allocations per 60-day comparison, budget %d", allocs, budget)
	} else {
		t.Logf("%.0f allocations per 60-day comparison, budget %d", allocs, budget)
	}
}
