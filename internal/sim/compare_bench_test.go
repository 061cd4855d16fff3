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
// the proxy arms.
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
// event or note copy would add thousands.
func TestCompareAllocs(t *testing.T) {
	const budget = 970
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
	}
}
