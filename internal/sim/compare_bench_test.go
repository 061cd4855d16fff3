package sim

import (
	"testing"

	"lasthop/internal/core"
)

// BenchmarkCompareYear is one comparison of the sim-year benchmark: the
// unified policy against the on-line baseline over one virtual year at 50 %
// outage. Nearly all of it is the virtual scheduler's event heap and the
// proxy's and device's ranked queues.
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
