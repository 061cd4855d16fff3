// Package experiment regenerates every figure of the paper's evaluation
// (§3, Figures 1–6) plus ablations for the design choices the paper
// discusses without plotting. Each figure function sweeps the same
// parameter grid as the paper and returns labeled series ready for text or
// CSV rendering.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/dist"
	"lasthop/internal/sim"
)

// Point is one (x, y) sample of a curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one labeled curve.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Figure is one reproduced experiment.
type Figure struct {
	// ID identifies the experiment ("figure-1", "figure-3-waste", ...).
	ID string `json:"id"`
	// Title describes what the paper's figure shows.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"xLabel"`
	YLabel string `json:"yLabel"`
	// XLog marks a logarithmic x axis in the paper's plot.
	XLog bool `json:"xLog,omitempty"`
	// Series are the curves.
	Series []Series `json:"series"`
}

// Options tunes experiment execution. The zero value reproduces the
// paper's setup (one virtual year, event frequency 32/day).
type Options struct {
	// Seed drives scenario randomness; zero defaults to 1.
	Seed uint64
	// Horizon shortens runs for smoke tests and benchmarks; zero
	// defaults to the paper's one virtual year.
	Horizon time.Duration
	// Replications averages each point over this many seeds; zero
	// defaults to 1.
	Replications int
	// EventsPerDay is the event frequency; zero defaults to the paper's
	// 32.
	EventsPerDay float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Horizon == 0 {
		o.Horizon = sim.Year
	}
	if o.Replications == 0 {
		o.Replications = 1
	}
	if o.EventsPerDay == 0 {
		o.EventsPerDay = 32
	}
	return o
}

// cell is one grid point of a figure: a scenario configuration and the
// policy to compare against the on-line baseline.
type cell struct {
	cfg    sim.Config
	policy core.TopicConfig
}

// cellResult carries one grid point's measurements.
type cellResult struct {
	waste, loss float64
}

// runCells evaluates every grid point. Results are positionally aligned
// with the input. Cells with equal scenario configurations form one group,
// so each replication's scenario is generated once and its on-line
// baseline runs once for the whole group (sim.CompareAveragedMany). Up to
// GOMAXPROCS groups run at a time; groups are independent simulations, so
// results do not depend on how many.
func runCells(opts Options, cells []cell) ([]cellResult, error) {
	var groups [][]int // cell indexes, groups in order of first appearance
	byConfig := make(map[sim.Config]int)
	for i, c := range cells {
		g, ok := byConfig[c.cfg]
		if !ok {
			g = len(groups)
			byConfig[c.cfg] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	results := make([]cellResult, len(cells))
	errs := make([]error, len(groups))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g, members := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			policies := make([]core.TopicConfig, len(members))
			for k, i := range members {
				policies[k] = cells[i].policy
			}
			waste, loss, _, err := sim.CompareAveragedMany(cells[members[0]].cfg, policies, opts.Replications)
			if err != nil {
				errs[g] = err
				return
			}
			for k, i := range members {
				results[i] = cellResult{waste: waste[k], loss: loss[k]}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (o Options) baseConfig() sim.Config {
	return sim.Config{
		Seed:         o.Seed,
		Horizon:      o.Horizon,
		EventsPerDay: o.EventsPerDay,
	}
}

// Figure1 reproduces "Waste due to overflow at different values of Max and
// user frequency" (on-line forwarding, no expirations, event frequency 32).
// The paper's analytical approximation is waste ≈ 1 − uf·Max/ef.
func Figure1(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "figure-1",
		Title:  "Waste due to overflow at different values of Max and user frequency",
		XLabel: "Maximum Messages per Read",
		YLabel: "Percent of Wasted Messages",
		XLog:   true,
	}
	userFreqs := []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}
	maxes := []int{1, 2, 4, 8, 16, 32, 64}
	var cells []cell
	for _, uf := range userFreqs {
		for _, m := range maxes {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = uf
			cfg.Max = m
			cells = append(cells, cell{cfg: cfg, policy: core.OnlineConfig(sim.TopicName)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 1: %w", err)
	}
	k := 0
	for _, uf := range userFreqs {
		s := Series{Label: fmt.Sprintf("user frequency %g", uf)}
		for _, m := range maxes {
			s.Points = append(s.Points, Point{X: float64(m), Y: res[k].waste})
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure2 reproduces "Loss due to overflow at different levels of network
// availability" (pure on-demand vs on-line baseline, Max = 8).
func Figure2(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "figure-2",
		Title:  "Loss due to overflow at different levels of network availability (Max = 8)",
		XLabel: "Percent of Network Outage",
		YLabel: "Percent of Lost Messages",
	}
	userFreqs := []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}
	outages := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}
	var cells []cell
	for _, uf := range userFreqs {
		for _, frac := range outages {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = uf
			cfg.Max = 8
			cfg.Outage.Fraction = frac
			cells = append(cells, cell{cfg: cfg, policy: core.OnDemandConfig(sim.TopicName, 8)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 2: %w", err)
	}
	k := 0
	for _, uf := range userFreqs {
		s := Series{Label: fmt.Sprintf("user frequency %g", uf)}
		for _, frac := range outages {
			s.Points = append(s.Points, Point{X: frac, Y: res[k].loss})
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure3 reproduces "Loss and waste with buffer-based prefetching under
// different prefetch limits and levels of network availability" (event
// frequency 32, Max = 8, user frequency 2). It returns the loss figure and
// the waste figure (the paper stacks two plots).
func Figure3(opts Options) (loss, waste Figure, err error) {
	opts = opts.withDefaults()
	loss = Figure{
		ID:     "figure-3-loss",
		Title:  "Loss with buffer-based prefetching under different prefetch limits",
		XLabel: "Prefetch Limit (messages)",
		YLabel: "Percent of Lost Messages",
		XLog:   true,
	}
	waste = Figure{
		ID:     "figure-3-waste",
		Title:  "Waste with buffer-based prefetching under different prefetch limits",
		XLabel: "Prefetch Limit (messages)",
		YLabel: "Percent of Wasted Messages",
		XLog:   true,
	}
	outages := []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	limits := []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	var cells []cell
	for _, frac := range outages {
		for _, limit := range limits {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = 2
			cfg.Max = 8
			cfg.Outage.Fraction = frac
			cells = append(cells, cell{cfg: cfg, policy: core.BufferConfig(sim.TopicName, 8, limit)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, Figure{}, fmt.Errorf("figure 3: %w", err)
	}
	k := 0
	for _, frac := range outages {
		ls := Series{Label: fmt.Sprintf("outage %g", frac)}
		ws := Series{Label: fmt.Sprintf("outage %g", frac)}
		for _, limit := range limits {
			ls.Points = append(ls.Points, Point{X: float64(limit), Y: res[k].loss})
			ws.Points = append(ws.Points, Point{X: float64(limit), Y: res[k].waste})
			k++
		}
		loss.Series = append(loss.Series, ls)
		waste.Series = append(waste.Series, ws)
	}
	return loss, waste, nil
}

// Figure4 reproduces "Waste due to expirations with different values of
// user frequency and expiration periods" (on-line forwarding, Max = ∞,
// exponential lifetimes with means from 16 s to ~3 days).
func Figure4(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "figure-4",
		Title:  "Waste due to expirations (Max = ∞, on-line forwarding)",
		XLabel: "Mean Expiration Time of Messages (seconds)",
		YLabel: "Percent of Wasted Messages",
		XLog:   true,
	}
	userFreqs := []float64{1, 2, 4, 8, 16, 32, 64}
	expMeans := expirationSweep()
	var cells []cell
	for _, uf := range userFreqs {
		for _, mean := range expMeans {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = uf
			cfg.Max = 0 // unlimited
			cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: mean}
			cells = append(cells, cell{cfg: cfg, policy: core.OnlineConfig(sim.TopicName)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 4: %w", err)
	}
	k := 0
	for _, uf := range userFreqs {
		s := Series{Label: fmt.Sprintf("user frequency %g", uf)}
		for _, mean := range expMeans {
			s.Points = append(s.Points, Point{X: mean.Seconds(), Y: res[k].waste})
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure5 reproduces "Loss due to expirations with different values of
// user frequency and expiration periods, network outage 95% of the time"
// (pure on-demand vs on-line baseline, Max = ∞).
func Figure5(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "figure-5",
		Title:  "Loss due to expirations at 95% network outage (Max = ∞)",
		XLabel: "Mean Expiration Time of Messages (seconds)",
		YLabel: "Percent of Lost Messages",
		XLog:   true,
	}
	userFreqs := []float64{1, 2, 4, 8, 16, 32, 64}
	expMeans := expirationSweep()
	var cells []cell
	for _, uf := range userFreqs {
		for _, mean := range expMeans {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = uf
			cfg.Max = 0
			cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: mean}
			cfg.Outage.Fraction = 0.95
			cells = append(cells, cell{cfg: cfg, policy: core.OnDemandConfig(sim.TopicName, 0)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 5: %w", err)
	}
	k := 0
	for _, uf := range userFreqs {
		s := Series{Label: fmt.Sprintf("user frequency %g", uf)}
		for _, mean := range expMeans {
			s.Points = append(s.Points, Point{X: mean.Seconds(), Y: res[k].loss})
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure6 reproduces "Waste and loss due to expirations at different
// prefetch expiration thresholds" (event frequency 32, user frequency 2,
// network outage 90%). Each curve is one mean message lifetime; the x axis
// sweeps the fixed expiration threshold of the holding stage.
func Figure6(opts Options) (waste, loss Figure, err error) {
	opts = opts.withDefaults()
	waste = Figure{
		ID:     "figure-6-waste",
		Title:  "Waste due to expirations at different prefetch expiration thresholds (90% outage)",
		XLabel: "Prefetch Expiration Threshold (seconds)",
		YLabel: "Percent of Wasted Messages",
		XLog:   true,
	}
	loss = Figure{
		ID:     "figure-6-loss",
		Title:  "Loss due to expirations at different prefetch expiration thresholds (90% outage)",
		XLabel: "Prefetch Expiration Threshold (seconds)",
		YLabel: "Percent of Lost Messages",
		XLog:   true,
	}
	expMeans := []time.Duration{
		15360 * time.Second,   // 4.2 hours
		245760 * time.Second,  // 2.8 days
		491520 * time.Second,  // 5.7 days
		983040 * time.Second,  // 11 days
		3932160 * time.Second, // 45.5 days (the paper prints "54"; 3932160 s is what it lists)
	}
	thresholds := []time.Duration{
		64 * time.Second, 256 * time.Second, 1024 * time.Second,
		4096 * time.Second, 16384 * time.Second, 65536 * time.Second,
		262144 * time.Second, 1048576 * time.Second,
	}
	var cells []cell
	for _, mean := range expMeans {
		for _, thr := range thresholds {
			cfg := opts.baseConfig()
			cfg.ReadsPerDay = 2
			cfg.Max = 8
			cfg.Outage.Fraction = 0.9
			cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: mean}
			policy := core.BufferConfig(sim.TopicName, 8, 32)
			policy.ExpirationThreshold = thr
			cells = append(cells, cell{cfg: cfg, policy: policy})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		return Figure{}, Figure{}, fmt.Errorf("figure 6: %w", err)
	}
	k := 0
	for _, mean := range expMeans {
		ws := Series{Label: fmt.Sprintf("expiration %s", humanDuration(mean))}
		ls := Series{Label: fmt.Sprintf("expiration %s", humanDuration(mean))}
		for _, thr := range thresholds {
			ws.Points = append(ws.Points, Point{X: thr.Seconds(), Y: res[k].waste})
			ls.Points = append(ls.Points, Point{X: thr.Seconds(), Y: res[k].loss})
			k++
		}
		waste.Series = append(waste.Series, ws)
		loss.Series = append(loss.Series, ls)
	}
	return waste, loss, nil
}

// expirationSweep is the paper's x axis for Figures 4 and 5: 16 s to
// 262144 s (~3 days) in powers of 4.
func expirationSweep() []time.Duration {
	out := make([]time.Duration, 0, 8)
	for s := 16; s <= 262144; s *= 4 {
		out = append(out, time.Duration(s)*time.Second)
	}
	return out
}

func humanDuration(d time.Duration) string {
	switch {
	case d >= dist.Day:
		return fmt.Sprintf("%.1fd", float64(d)/float64(dist.Day))
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}
