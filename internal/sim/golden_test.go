package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/dist"
)

// goldenRun is one comparison's outcome, floats as their IEEE-754 bits.
type goldenRun struct {
	waste, loss           uint64
	baseFwd, baseRead     int
	policyFwd, policyRead int
}

// goldenPresets are the five policy presets the sim-year benchmark
// compares, plus a buffer policy with a delay stage so that retractions
// cancel pending delay timers.
func goldenPresets(max int) map[string]core.TopicConfig {
	delayed := core.BufferConfig(TopicName, max, 32)
	delayed.Delay = 30 * time.Minute
	return map[string]core.TopicConfig{
		"online":   core.OnlineConfig(TopicName),
		"ondemand": core.OnDemandConfig(TopicName, max),
		"buffer":   core.BufferConfig(TopicName, max, 32),
		"rate":     core.RateConfig(TopicName, max),
		"unified":  core.UnifiedConfig(TopicName, max),
		"delayed":  delayed,
	}
}

// goldenConfig is the sim-year benchmark's scenario at a 60-day horizon;
// churn adds rank retractions and exponential lifetimes, which put
// UpdateRank, Remove, expiry timers and Cancel on the path.
func goldenConfig(seed uint64, churn bool) Config {
	cfg := quickCfg(func(c *Config) {
		c.Seed = seed
		c.Outage.Fraction = 0.5
	})
	if churn {
		cfg.RankThreshold = 2.5
		cfg.Churn = ChurnConfig{Portion: 0.3, MeanLag: 5 * time.Minute, RetractTo: 0}
		cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 6 * time.Hour}
	}
	return cfg
}

// TestCompareGolden pins the simulator's output bit for bit. The scheduler
// and the ranked queues may change how they order work internally, but
// identical inputs must fire identical callbacks in identical order, so
// every waste and loss figure and every transfer and read count must stay
// exactly as recorded. A mismatch prints the row's new literal.
func TestCompareGolden(t *testing.T) {
	golden := []struct {
		seed   uint64
		churn  bool
		preset string
		want   goldenRun
	}{
		{1, false, "online", goldenRun{0x4047065f4eaf197d, 0x0, 1848, 997, 1848, 997}},
		{1, false, "ondemand", goldenRun{0x0, 0x4049ed8335aa3d1d, 1848, 997, 480, 480}},
		{1, false, "buffer", goldenRun{0x400912ce1a93eef3, 0x400677a7abc782b2, 1848, 997, 1021, 989}},
		{1, false, "rate", goldenRun{0x401e6605383ad6f4, 0x3fb9ad51e8e40315, 1848, 997, 1079, 997}},
		{1, false, "unified", goldenRun{0x400b438d55ff8060, 0x4005aa3d1c80629a, 1848, 997, 1027, 992}},
		{2, false, "online", goldenRun{0x4049173fa2796c8a, 0x0, 1927, 960, 1927, 960}},
		{2, false, "ondemand", goldenRun{0x0, 0x404c555555555555, 1927, 960, 416, 416}},
		{2, false, "buffer", goldenRun{0x4009ce739ce739ce, 0x40082aaaaaaaaaab, 1927, 960, 992, 960}},
		{2, false, "rate", goldenRun{0x4024c9592b2564ad, 0x3ff7555555555555, 1927, 960, 1068, 957}},
		{2, false, "unified", goldenRun{0x4009efeb4010998c, 0x4012555555555555, 1927, 960, 987, 955}},
		{3, false, "online", goldenRun{0x4049355555555555, 0x0, 1920, 952, 1920, 952}},
		{3, false, "ondemand", goldenRun{0x0, 0x4049a15833a15834, 1920, 952, 464, 464}},
		{3, false, "buffer", goldenRun{0x400a3ac10c9714fc, 0x400e4089ae4089ae, 1920, 952, 976, 944}},
		{3, false, "rate", goldenRun{0x40248bf185e951cb, 0x3fd42b06742b0674, 1920, 952, 1061, 952}},
		{3, false, "unified", goldenRun{0x400d53f166b67c17, 0x40113a15833a1583, 1920, 952, 982, 946}},
		{1, true, "online", goldenRun{0x40513aef6ca97058, 0x0, 695, 216, 695, 216}},
		{1, true, "ondemand", goldenRun{0x0, 0x403e8e38e38e38e4, 695, 216, 150, 150}},
		{1, true, "buffer", goldenRun{0x40513aef6ca97058, 0x0, 695, 216, 695, 216}},
		{1, true, "rate", goldenRun{0x405123c5de767f71, 0x0, 695, 216, 687, 216}},
		{1, true, "unified", goldenRun{0x4041c3fc3fc3fc40, 0x403284bda12f684c, 695, 216, 273, 176}},
		{1, true, "delayed", goldenRun{0x404e32b16cfd7721, 0x401da12f684bda13, 695, 216, 505, 200}},
	}
	for _, g := range golden {
		sc := mustScenario(t, goldenConfig(g.seed, g.churn))
		cmp, err := Compare(sc, goldenPresets(sc.Cfg.Max)[g.preset])
		if err != nil {
			t.Fatalf("seed %d churn %v %s: %v", g.seed, g.churn, g.preset, err)
		}
		got := goldenRun{
			waste:      math.Float64bits(cmp.WastePct),
			loss:       math.Float64bits(cmp.LossPct),
			baseFwd:    cmp.Baseline.Forwarded,
			baseRead:   cmp.Baseline.ReadCount,
			policyFwd:  cmp.Policy.Forwarded,
			policyRead: cmp.Policy.ReadCount,
		}
		if got != g.want {
			t.Errorf("seed %d churn %v %s: got %s, want %s (waste %v, loss %v)",
				g.seed, g.churn, g.preset, goldenLiteral(got), goldenLiteral(g.want), cmp.WastePct, cmp.LossPct)
		}
	}
}

func goldenLiteral(r goldenRun) string {
	return fmt.Sprintf("goldenRun{%#x, %#x, %d, %d, %d, %d}",
		r.waste, r.loss, r.baseFwd, r.baseRead, r.policyFwd, r.policyRead)
}
