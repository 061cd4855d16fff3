package sim

import (
	"math"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/dist"
	"lasthop/internal/trace"
)

// quickCfg is a 60-day configuration that keeps unit tests fast while
// retaining enough events for stable percentages.
func quickCfg(mut func(*Config)) Config {
	cfg := Config{
		Seed:         1,
		Horizon:      60 * dist.Day,
		EventsPerDay: 32,
		ReadsPerDay:  2,
		Max:          8,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func mustScenario(t *testing.T, cfg Config) Scenario {
	t.Helper()
	sc, err := NewScenario(cfg)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	return sc
}

func TestScenarioDeterminism(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Outage.Fraction = 0.3
		c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 4 * time.Hour}
	})
	a := mustScenario(t, cfg)
	b := mustScenario(t, cfg)
	if len(a.Arrivals) != len(b.Arrivals) || len(a.Reads) != len(b.Reads) || len(a.Outages) != len(b.Outages) {
		t.Fatal("same seed produced different scenario shapes")
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	c := cfg
	c.Seed = 2
	other := mustScenario(t, c)
	if len(other.Arrivals) == len(a.Arrivals) && len(other.Reads) == len(a.Reads) {
		same := true
		for i := range a.Arrivals {
			if a.Arrivals[i] != other.Arrivals[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical arrivals")
		}
	}
}

func TestScenarioIndependentStreams(t *testing.T) {
	// Changing the outage fraction must not perturb arrivals or reads.
	cfg := quickCfg(nil)
	a := mustScenario(t, cfg)
	cfg.Outage.Fraction = 0.8
	b := mustScenario(t, cfg)
	if len(a.Arrivals) != len(b.Arrivals) {
		t.Fatal("outage change perturbed arrivals")
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatal("outage change perturbed arrival content")
		}
	}
	if len(a.Reads) != len(b.Reads) {
		t.Fatal("outage change perturbed reads")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Config{
		{Horizon: -1},
		{EventsPerDay: -1},
		{ReadsPerDay: -1},
		{Max: -1},
		{RankMin: 3, RankMax: 1},
		{Outage: dist.OutageConfig{Fraction: 1.5}},
		{Churn: ChurnConfig{Portion: -0.1}},
	}
	for i, cfg := range bad {
		if _, err := NewScenario(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg(func(c *Config) { c.Outage.Fraction = 0.4 })
	sc := mustScenario(t, cfg)
	r1, err := Run(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Forwarded != r2.Forwarded || r1.ReadCount != r2.ReadCount {
		t.Errorf("same scenario diverged: %+v vs %+v", r1, r2)
	}
}

func TestOverflowWasteMatchesFormula(t *testing.T) {
	// Paper §3.2: waste% ≈ 1 - uf*Max/ef under on-line forwarding.
	tests := []struct {
		uf   float64
		max  int
		want float64
	}{
		{1, 4, 87.5},
		{2, 8, 50},
		{1, 32, 0},
		{4, 8, 0},
	}
	for _, tt := range tests {
		cfg := quickCfg(func(c *Config) {
			c.ReadsPerDay = tt.uf
			c.Max = tt.max
			c.Horizon = 120 * dist.Day
		})
		sc := mustScenario(t, cfg)
		res, err := Run(sc, core.OnlineConfig(TopicName))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.WastePct-tt.want) > 6 {
			t.Errorf("uf=%v Max=%d: waste = %.1f%%, want ~%.1f%%", tt.uf, tt.max, res.WastePct, tt.want)
		}
	}
}

func TestOnDemandHasNoWaste(t *testing.T) {
	cfg := quickCfg(func(c *Config) { c.Outage.Fraction = 0.5 })
	sc := mustScenario(t, cfg)
	res, err := Run(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	if res.WastePct != 0 {
		t.Errorf("on-demand waste = %.2f%%, want 0", res.WastePct)
	}
	if res.Forwarded != res.ReadCount {
		t.Errorf("on-demand forwarded %d != read %d", res.Forwarded, res.ReadCount)
	}
}

func TestOnlineHasNoLoss(t *testing.T) {
	cfg := quickCfg(func(c *Config) { c.Outage.Fraction = 0.5 })
	sc := mustScenario(t, cfg)
	cmp, err := Compare(sc, core.OnlineConfig(TopicName))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.LossPct != 0 {
		t.Errorf("online loss = %.2f%%, want 0 by definition", cmp.LossPct)
	}
}

func TestOnDemandLossGrowsWithOutage(t *testing.T) {
	var prev float64 = -1
	for _, frac := range []float64{0, 0.5, 0.9} {
		cfg := quickCfg(func(c *Config) {
			c.ReadsPerDay = 0.5
			c.Outage.Fraction = frac
		})
		sc := mustScenario(t, cfg)
		cmp, err := Compare(sc, core.OnDemandConfig(TopicName, cfg.Max))
		if err != nil {
			t.Fatal(err)
		}
		if cmp.LossPct < prev-3 {
			t.Errorf("loss at outage %v = %.1f%% dropped below %.1f%%", frac, cmp.LossPct, prev)
		}
		prev = cmp.LossPct
		if frac == 0 && cmp.LossPct > 5 {
			t.Errorf("loss with perfect network = %.1f%%, want ~0", cmp.LossPct)
		}
		if frac == 0.9 && cmp.LossPct < 30 {
			t.Errorf("loss at 90%% outage = %.1f%%, want substantial", cmp.LossPct)
		}
	}
}

func TestTotalOutageHasNoLoss(t *testing.T) {
	// At 100% outage both policies are equally powerless (paper Fig. 2:
	// loss drops back to 0 at the point of no connectivity).
	cfg := quickCfg(func(c *Config) { c.Outage.Fraction = 1 })
	sc := mustScenario(t, cfg)
	cmp, err := Compare(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.LossPct != 0 {
		t.Errorf("loss at total outage = %.1f%%", cmp.LossPct)
	}
	if cmp.Baseline.Forwarded != 0 || cmp.Policy.Forwarded != 0 {
		t.Errorf("messages crossed a dead link: base %d, policy %d",
			cmp.Baseline.Forwarded, cmp.Policy.Forwarded)
	}
}

func TestBufferPrefetchBeatsExtremes(t *testing.T) {
	// The paper's headline (§3.2/Fig. 3): with a prefetch limit around
	// 2x the daily read volume, both waste and loss stay low, whereas
	// online wastes heavily and on-demand loses heavily.
	cfg := quickCfg(func(c *Config) {
		c.ReadsPerDay = 2
		c.Max = 8
		c.Outage.Fraction = 0.7
		c.Horizon = 120 * dist.Day
	})
	sc := mustScenario(t, cfg)

	online, err := Compare(sc, core.OnlineConfig(TopicName))
	if err != nil {
		t.Fatal(err)
	}
	onDemand, err := Compare(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := Compare(sc, core.BufferConfig(TopicName, cfg.Max, 32))
	if err != nil {
		t.Fatal(err)
	}

	if online.WastePct < 30 {
		t.Errorf("online waste = %.1f%%, expected heavy overflow waste", online.WastePct)
	}
	if onDemand.LossPct < 10 {
		t.Errorf("on-demand loss = %.1f%%, expected heavy outage loss", onDemand.LossPct)
	}
	if buffered.WastePct > 12 {
		t.Errorf("buffer waste = %.1f%%, want low", buffered.WastePct)
	}
	if buffered.LossPct > 12 {
		t.Errorf("buffer loss = %.1f%%, want low", buffered.LossPct)
	}
}

func TestExpirationWasteShortLifetimes(t *testing.T) {
	// Short-lived notifications under on-line forwarding mostly expire
	// before the user reads them (Fig. 4 left edge); long-lived ones do
	// not (right edge).
	base := func(mean time.Duration) float64 {
		cfg := quickCfg(func(c *Config) {
			c.Max = 0 // Max = ∞ as in §3.3
			c.ReadsPerDay = 2
			c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: mean}
		})
		sc := mustScenario(t, cfg)
		res, err := Run(sc, core.OnlineConfig(TopicName))
		if err != nil {
			t.Fatal(err)
		}
		return res.WastePct
	}
	short := base(time.Minute)
	long := base(30 * dist.Day)
	if short < 80 {
		t.Errorf("1-minute lifetimes: waste = %.1f%%, want ~100%%", short)
	}
	if long > 10 {
		t.Errorf("30-day lifetimes: waste = %.1f%%, want ~0%%", long)
	}
}

func TestExpirationLossHump(t *testing.T) {
	// Fig. 5: under heavy outage, loss is low for very short lifetimes
	// (nothing to read either way) and low again for very long ones
	// (on-demand eventually catches up); it peaks in between.
	loss := func(mean time.Duration) float64 {
		cfg := quickCfg(func(c *Config) {
			c.Max = 0
			c.ReadsPerDay = 4
			c.Outage.Fraction = 0.95
			c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: mean}
			c.Horizon = 120 * dist.Day
		})
		sc := mustScenario(t, cfg)
		cmp, err := Compare(sc, core.OnDemandConfig(TopicName, 0))
		if err != nil {
			t.Fatal(err)
		}
		return cmp.LossPct
	}
	short := loss(30 * time.Second)
	mid := loss(6 * time.Hour)
	long := loss(60 * dist.Day)
	if !(mid > short+5 && mid > long+5) {
		t.Errorf("loss hump missing: short=%.1f mid=%.1f long=%.1f", short, mid, long)
	}
}

func TestExpirationThresholdReducesWaste(t *testing.T) {
	// Fig. 6: holding back notifications that expire within the
	// threshold trades waste for loss.
	cfg := quickCfg(func(c *Config) {
		c.ReadsPerDay = 2
		c.Max = 8
		c.Outage.Fraction = 0.9
		c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 6 * time.Hour}
		c.Horizon = 120 * dist.Day
	})
	sc := mustScenario(t, cfg)

	without, err := Compare(sc, core.BufferConfig(TopicName, cfg.Max, 32))
	if err != nil {
		t.Fatal(err)
	}
	guarded := core.BufferConfig(TopicName, cfg.Max, 32)
	guarded.ExpirationThreshold = 8 * time.Hour
	with, err := Compare(sc, guarded)
	if err != nil {
		t.Fatal(err)
	}
	if with.WastePct >= without.WastePct {
		t.Errorf("threshold did not reduce waste: %.1f%% -> %.1f%%", without.WastePct, with.WastePct)
	}
	if with.LossPct < without.LossPct {
		t.Errorf("threshold unexpectedly reduced loss: %.1f%% -> %.1f%%", without.LossPct, with.LossPct)
	}
}

func TestChurnDelayShieldsDevice(t *testing.T) {
	// §3.4: a delay stage lets quick retractions land before the
	// transfer, reducing vain traffic.
	cfg := quickCfg(func(c *Config) {
		c.RankThreshold = 2.5
		c.Churn = ChurnConfig{Portion: 0.3, MeanLag: 5 * time.Minute, RetractTo: 0}
	})
	sc := mustScenario(t, cfg)

	plain := core.BufferConfig(TopicName, cfg.Max, 32)
	resPlain, err := Run(sc, plain)
	if err != nil {
		t.Fatal(err)
	}
	delayed := core.BufferConfig(TopicName, cfg.Max, 32)
	delayed.Delay = 30 * time.Minute
	resDelayed, err := Run(sc, delayed)
	if err != nil {
		t.Fatal(err)
	}
	if resDelayed.Device.RankDropsApplied >= resPlain.Device.RankDropsApplied {
		t.Errorf("delay stage did not reduce on-device retractions: %d -> %d",
			resPlain.Device.RankDropsApplied, resDelayed.Device.RankDropsApplied)
	}
}

func TestDeviceCapacityCausesEvictions(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.ReadsPerDay = 0.5
		c.DeviceCapacity = 50
	})
	sc := mustScenario(t, cfg)
	res, err := Run(sc, core.OnlineConfig(TopicName))
	if err != nil {
		t.Fatal(err)
	}
	if res.Device.EvictedStorage == 0 {
		t.Error("no evictions despite overflow and tiny storage")
	}
	if res.WastePct < 50 {
		t.Errorf("waste = %.1f%%, want high with tiny storage", res.WastePct)
	}
}

func TestDeviceBatteryDeath(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.DeviceBattery = 100 // dies after ~100 receives
	})
	sc := mustScenario(t, cfg)
	res, err := Run(sc, core.OnlineConfig(TopicName))
	if err != nil {
		t.Fatal(err)
	}
	// A dying battery is the simulator's one burst that fails part-way.
	// The values were recorded from the per-event forwarding path: every
	// transfer the device took, and no other, counts as forwarded.
	if res.Device.Received != 97 || res.Device.BatteryUsed != 100.5 {
		t.Errorf("device Received = %d, BatteryUsed = %v; want 97, 100.5",
			res.Device.Received, res.Device.BatteryUsed)
	}
	if res.Proxy.Forwards != res.Device.Received {
		t.Errorf("proxy Forwards = %d, device Received = %d", res.Proxy.Forwards, res.Device.Received)
	}
}

func TestRatePolicyRuns(t *testing.T) {
	cfg := quickCfg(func(c *Config) { c.Outage.Fraction = 0.5 })
	sc := mustScenario(t, cfg)
	cmp, err := Compare(sc, core.RateConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	// Rate-based prefetching must land between the extremes: some
	// forwarding happened, but far less than the arrival volume.
	if cmp.Policy.Forwarded == cmp.Policy.ReadCount {
		t.Error("rate policy never prefetched")
	}
	if cmp.WastePct > 75 {
		t.Errorf("rate policy waste = %.1f%%, want bounded", cmp.WastePct)
	}
}

func TestUnifiedPolicyLowWasteLowLoss(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Outage.Fraction = 0.7
		c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 5 * dist.Day}
		c.Horizon = 120 * dist.Day
	})
	sc := mustScenario(t, cfg)
	unified, err := Compare(sc, core.UnifiedConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	online, err := Compare(sc, core.OnlineConfig(TopicName))
	if err != nil {
		t.Fatal(err)
	}
	onDemand, err := Compare(sc, core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	score := func(c Comparison) float64 { return c.WastePct + c.LossPct }
	if score(unified) >= score(online) || score(unified) >= score(onDemand) {
		t.Errorf("unified waste+loss = %.1f, want below online %.1f and on-demand %.1f",
			score(unified), score(online), score(onDemand))
	}
	if unified.LossPct > 15 {
		t.Errorf("unified loss = %.1f%%", unified.LossPct)
	}
	// With 5-day expirations a 32-deep device buffer inevitably rots a
	// bit; the waste must still stay well below the online policy's.
	if unified.WastePct > 30 {
		t.Errorf("unified waste = %.1f%%", unified.WastePct)
	}
}

func TestCompareStats(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Horizon = 30 * dist.Day
		c.Outage.Fraction = 0.7
	})
	wasteStats, lossStats, first, err := CompareStats(cfg, core.OnDemandConfig(TopicName, cfg.Max), 4)
	if err != nil {
		t.Fatal(err)
	}
	if wasteStats.N() != 4 || lossStats.N() != 4 {
		t.Fatalf("N = %d/%d", wasteStats.N(), lossStats.N())
	}
	// The first comparison is replication 0's, whose seed is cfg.Seed.
	want, err := Compare(mustScenario(t, cfg), core.OnDemandConfig(TopicName, cfg.Max))
	if err != nil {
		t.Fatal(err)
	}
	if first.LossPct != want.LossPct || first.Policy.Forwarded != want.Policy.Forwarded {
		t.Errorf("first comparison: loss %v, forwarded %d; replication 0 has %v, %d",
			first.LossPct, first.Policy.Forwarded, want.LossPct, want.Policy.Forwarded)
	}
	if wasteStats.Mean() != 0 {
		t.Errorf("on-demand waste mean = %v", wasteStats.Mean())
	}
	if lossStats.Mean() <= 0 || lossStats.Mean() > 100 {
		t.Errorf("loss mean = %v", lossStats.Mean())
	}
	if lossStats.Min() > lossStats.Max() {
		t.Error("min exceeds max")
	}
	if lossStats.StdDev() < 0 {
		t.Error("negative stddev")
	}
	// Different seeds genuinely vary.
	if lossStats.Min() == lossStats.Max() {
		t.Error("replications produced identical loss — seeds not varied?")
	}
}

func TestRunTracedTimeline(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Horizon = 20 * dist.Day
		c.Outage.Fraction = 0.5
		c.Churn = ChurnConfig{Portion: 0.2, RetractTo: 0}
		c.RankThreshold = 1
	})
	sc := mustScenario(t, cfg)
	buf := trace.NewBuffer(0)
	res, err := RunTraced(sc, core.BufferConfig(TopicName, cfg.Max, 16), buf)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := buf.Filter(trace.KindArrival)
	if len(arrivals) != res.Arrivals {
		t.Errorf("traced %d arrivals, ran %d", len(arrivals), res.Arrivals)
	}
	forwards := buf.Filter(trace.KindForward)
	if len(forwards) < res.Forwarded {
		t.Errorf("traced %d forwards, device received %d", len(forwards), res.Forwarded)
	}
	reads := buf.Filter(trace.KindRead)
	if len(reads) != len(sc.Reads) {
		t.Errorf("traced %d reads, scheduled %d", len(reads), len(sc.Reads))
	}
	if len(buf.Filter(trace.KindRetract)) == 0 {
		t.Error("no retractions traced despite churn")
	}
	if len(buf.Filter(trace.KindLinkDown)) == 0 || len(buf.Filter(trace.KindLinkUp)) == 0 {
		t.Error("no link transitions traced despite outages")
	}
	// The timeline is chronological.
	events := buf.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
}

func TestCompareAveraged(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Horizon = 30 * dist.Day
		c.Outage.Fraction = 0.5
	})
	waste, loss, first, err := CompareAveraged(cfg, core.OnDemandConfig(TopicName, cfg.Max), 3)
	if err != nil {
		t.Fatal(err)
	}
	if waste != 0 {
		t.Errorf("averaged on-demand waste = %v", waste)
	}
	if loss < 0 || loss > 100 {
		t.Errorf("averaged loss = %v", loss)
	}
	if first.Baseline.Arrivals == 0 {
		t.Error("first comparison missing")
	}

	// Each mean sums the replications in seed order, then divides: the
	// figures in results/ depend on that order bit for bit.
	policy := core.BufferConfig(TopicName, cfg.Max, 4)
	waste, loss, _, err = CompareAveraged(cfg, policy, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wantWaste, wantLoss float64
	for r := range 3 {
		rc := cfg
		rc.Seed = cfg.Seed + uint64(r)*0x9e3779b9
		cmp, err := Compare(mustScenario(t, rc), policy)
		if err != nil {
			t.Fatal(err)
		}
		wantWaste += cmp.WastePct
		wantLoss += cmp.LossPct
	}
	wantWaste /= 3
	wantLoss /= 3
	if math.Float64bits(waste) != math.Float64bits(wantWaste) || math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Errorf("averaged waste %v loss %v, replications summed in order %v %v", waste, loss, wantWaste, wantLoss)
	}
}
