package experiment

import (
	"fmt"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/sim"
)

// Ablations probe design choices the paper argues for in prose: buffer-
// versus rate-based prefetching (§3.2), the rank-retraction delay stage
// (§3.4), and the auto-tuned prefetch limit ("twice the moving average of
// read sizes", §3.2).

// AblationRateVsBuffer compares the buffer- and rate-based prefetching
// approaches across outage levels. The paper reports both reduce waste and
// loss to a few percentage points with buffer-based "more effective and,
// incidentally, simpler".
func AblationRateVsBuffer(opts Options) (loss, waste Figure, err error) {
	opts = opts.withDefaults()
	loss = Figure{
		ID:     "ablation-rate-vs-buffer-loss",
		Title:  "Buffer-based vs rate-based prefetching: loss",
		XLabel: "Percent of Network Outage",
		YLabel: "Percent of Lost Messages",
	}
	waste = Figure{
		ID:     "ablation-rate-vs-buffer-waste",
		Title:  "Buffer-based vs rate-based prefetching: waste",
		XLabel: "Percent of Network Outage",
		YLabel: "Percent of Wasted Messages",
	}
	outages := []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9}
	policies := []struct {
		label string
		cfg   core.TopicConfig
	}{
		{"buffer (limit 32)", core.BufferConfig(sim.TopicName, 8, 32)},
		{"rate", core.RateConfig(sim.TopicName, 8)},
	}
	var cells []cell
	for _, pol := range policies {
		for _, frac := range outages {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = 2
			cfg.Max = 8
			cfg.Outage.Fraction = frac
			cells = append(cells, cell{cfg: cfg, policy: pol.cfg})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, Figure{}, fmt.Errorf("rate-vs-buffer: %w", err)
	}
	k := 0
	for _, pol := range policies {
		ls := Series{Label: pol.label}
		ws := Series{Label: pol.label}
		for _, frac := range outages {
			ls.Points = append(ls.Points, Point{X: frac, Y: res[k].loss})
			ws.Points = append(ws.Points, Point{X: frac, Y: res[k].waste})
			k++
		}
		loss.Series = append(loss.Series, ls)
		waste.Series = append(waste.Series, ws)
	}
	return loss, waste, nil
}

// AblationDelay measures the §3.4 delay stage under a rank-retraction
// workload: the y axis is the percentage of retracted notifications that
// were transferred to the device in vain before the retraction landed.
func AblationDelay(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "ablation-delay",
		Title:  "Delay stage vs vain transfers under rank retractions (30% retracted)",
		XLabel: "Delay (seconds)",
		YLabel: "Percent of retractions reaching the device",
	}
	delays := []time.Duration{0, time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour, 4 * time.Hour}
	s := Series{Label: "fixed delay"}
	for _, d := range delays {
		cfg := opts.baseConfig()
		cfg.ReadsPerDay = 2
		cfg.Max = 8
		cfg.RankThreshold = 2.5
		cfg.Churn = sim.ChurnConfig{Portion: 0.3, MeanLag: 10 * time.Minute, RetractTo: 0}
		policy := core.BufferConfig(sim.TopicName, 8, 32)
		policy.Delay = d
		vain, err := vainRetractionPct(cfg, policy, opts)
		if err != nil {
			return Figure{}, fmt.Errorf("delay ablation (delay=%v): %w", d, err)
		}
		s.Points = append(s.Points, Point{X: d.Seconds(), Y: vain})
	}
	fig.Series = append(fig.Series, s)

	auto := Series{Label: "auto delay (learned from retraction lags)"}
	cfg := opts.baseConfig()
	cfg.ReadsPerDay = 2
	cfg.Max = 8
	cfg.RankThreshold = 2.5
	cfg.Churn = sim.ChurnConfig{Portion: 0.3, MeanLag: 10 * time.Minute, RetractTo: 0}
	policy := core.BufferConfig(sim.TopicName, 8, 32)
	policy.AutoDelay = true
	vain, err := vainRetractionPct(cfg, policy, opts)
	if err != nil {
		return Figure{}, fmt.Errorf("delay ablation (auto): %w", err)
	}
	for _, d := range delays {
		auto.Points = append(auto.Points, Point{X: d.Seconds(), Y: vain})
	}
	fig.Series = append(fig.Series, auto)
	return fig, nil
}

// vainRetractionPct runs the scenario and reports what percentage of
// retractions still reached the device (either applied there or delivered
// and read before the retraction).
func vainRetractionPct(cfg sim.Config, policy core.TopicConfig, opts Options) (float64, error) {
	total := 0.0
	for r := 0; r < opts.Replications; r++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(r)*0x9e3779b9
		sc, err := sim.NewScenario(runCfg)
		if err != nil {
			return 0, err
		}
		retracted := 0
		for _, a := range sc.Arrivals {
			if a.RetractAt > 0 {
				retracted++
			}
		}
		if retracted == 0 {
			continue
		}
		res, err := sim.Run(sc, policy)
		if err != nil {
			return 0, err
		}
		total += 100 * float64(res.Device.RankDropsApplied) / float64(retracted)
	}
	return total / float64(opts.Replications), nil
}

// AblationAutoLimit compares the paper's auto-tuned prefetch limit (twice
// the moving average of read sizes) against fixed limits across user
// frequencies, reporting waste plus loss as a single inefficiency score.
func AblationAutoLimit(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "ablation-auto-limit",
		Title:  "Auto prefetch limit vs fixed limits (waste + loss, 70% outage)",
		XLabel: "User frequency (reads/day)",
		YLabel: "Waste + Loss (percentage points)",
	}
	userFreqs := []float64{0.5, 1, 2, 4, 8}
	policies := []struct {
		label string
		cfg   core.TopicConfig
	}{
		{"fixed limit 4", core.BufferConfig(sim.TopicName, 8, 4)},
		{"fixed limit 64", core.BufferConfig(sim.TopicName, 8, 64)},
		{"fixed limit 1024", core.BufferConfig(sim.TopicName, 8, 1024)},
		{"auto (2x avg read)", core.UnifiedConfig(sim.TopicName, 8)},
	}
	var cells []cell
	for _, pol := range policies {
		for _, uf := range userFreqs {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = uf
			cfg.Max = 8
			cfg.Outage.Fraction = 0.7
			cells = append(cells, cell{cfg: cfg, policy: pol.cfg})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, fmt.Errorf("auto-limit ablation: %w", err)
	}
	k := 0
	for _, pol := range policies {
		s := Series{Label: pol.label}
		for _, uf := range userFreqs {
			s.Points = append(s.Points, Point{X: uf, Y: res[k].waste + res[k].loss})
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
