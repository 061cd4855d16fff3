// Command lasthop-sim runs one last-hop simulation comparison: an on-line
// forwarding baseline and a chosen policy over the identical randomized
// scenario, reporting the paper's waste and loss metrics (§3.1).
//
// Example:
//
//	lasthop-sim -policy buffer -prefetch-limit 32 -outage 0.9 -uf 2 -max 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/dist"
	"lasthop/internal/sim"
	"lasthop/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed        = flag.Uint64("seed", 1, "random seed")
		days        = flag.Int("days", 365, "simulated days")
		ef          = flag.Float64("ef", 32, "event frequency (notifications/day)")
		uf          = flag.Float64("uf", 2, "user frequency (reads/day)")
		maxRead     = flag.Int("max", 8, "Max: messages per read (0 = unlimited)")
		threshold   = flag.Float64("threshold", 0, "Threshold: minimum acceptable rank")
		outage      = flag.Float64("outage", 0, "cumulative network downtime fraction [0,1]")
		expMean     = flag.Duration("expiration", 0, "mean notification lifetime (0 = never expires)")
		policy      = flag.String("policy", "buffer", "policy: online, on-demand, buffer, rate, unified")
		limit       = flag.Int("prefetch-limit", 32, "prefetch limit for the buffer policy")
		expThr      = flag.Duration("expiration-threshold", 0, "holding-stage threshold (buffer policy)")
		delay       = flag.Duration("delay", 0, "delay stage duration")
		churn       = flag.Float64("churn", 0, "fraction of notifications later retracted")
		capacity    = flag.Int("device-capacity", 0, "device storage bound (0 = unlimited)")
		battery     = flag.Float64("device-battery", 0, "device energy budget (0 = unlimited)")
		replication = flag.Int("reps", 1, "replications to average over")
		traceFile   = flag.String("trace", "", "write the policy run's event timeline to this file")
		saveScen    = flag.String("save-scenario", "", "save the generated scenario to this file")
		loadScen    = flag.String("scenario", "", "replay a saved scenario instead of generating one")
	)
	flag.Parse()

	cfg := sim.Config{
		Seed:           *seed,
		Horizon:        time.Duration(*days) * dist.Day,
		EventsPerDay:   *ef,
		ReadsPerDay:    *uf,
		Max:            *maxRead,
		RankThreshold:  *threshold,
		DeviceCapacity: *capacity,
		DeviceBattery:  *battery,
	}
	cfg.Outage.Fraction = *outage
	if *expMean > 0 {
		cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: *expMean}
	}
	if *churn > 0 {
		cfg.Churn = sim.ChurnConfig{Portion: *churn, RetractTo: 0}
	}

	var pol core.TopicConfig
	switch *policy {
	case "online":
		pol = core.OnlineConfig(sim.TopicName)
	case "on-demand", "ondemand":
		pol = core.OnDemandConfig(sim.TopicName, *maxRead)
	case "buffer":
		pol = core.BufferConfig(sim.TopicName, *maxRead, *limit)
	case "rate":
		pol = core.RateConfig(sim.TopicName, *maxRead)
	case "unified":
		pol = core.UnifiedConfig(sim.TopicName, *maxRead)
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	pol.ExpirationThreshold = *expThr
	pol.Delay = *delay

	if *loadScen != "" {
		sc, err := sim.LoadScenarioFile(*loadScen)
		if err != nil {
			return err
		}
		cfg = sc.Cfg
		cmp, err := sim.Compare(sc, pol)
		if err != nil {
			return err
		}
		printComparison(cfg, *policy, cmp)
		fmt.Printf("\nwaste: %.2f%%   loss: %.2f%%   (replayed %s)\n", cmp.WastePct, cmp.LossPct, *loadScen)
		return nil
	}
	if *saveScen != "" {
		sc, err := sim.NewScenario(cfg)
		if err != nil {
			return err
		}
		if err := sc.SaveFile(*saveScen); err != nil {
			return err
		}
		fmt.Printf("scenario saved to %s\n", *saveScen)
	}

	wasteStats, lossStats, first, err := sim.CompareStats(cfg, pol, *replication)
	if err != nil {
		return err
	}

	if *traceFile != "" {
		// Re-run the first scenario's policy run with tracing enabled.
		sc, err := sim.NewScenario(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tw := trace.NewWriter(f)
		if _, err := sim.RunTraced(sc, pol, tw); err != nil {
			return err
		}
		if err := tw.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("event timeline written to %s\n\n", *traceFile)
	}
	printComparison(cfg, *policy, first)
	if *replication > 1 {
		fmt.Printf("\nwaste: %.2f%% ± %.2f   loss: %.2f%% ± %.2f   (over %d replications)\n",
			wasteStats.Mean(), wasteStats.StdDev(), lossStats.Mean(), lossStats.StdDev(), *replication)
	} else {
		fmt.Printf("\nwaste: %.2f%%   loss: %.2f%%\n", wasteStats.Mean(), lossStats.Mean())
	}
	return nil
}

// printComparison renders the side-by-side run table.
func printComparison(cfg sim.Config, policyName string, cmp sim.Comparison) {
	b, p := cmp.Baseline, cmp.Policy
	fmt.Printf("scenario: %v horizon, ef=%g/day, uf=%g/day, Max=%d, outage=%.0f%%, %d arrivals\n",
		cfg.Horizon, cfg.EventsPerDay, cfg.ReadsPerDay, cfg.Max, cfg.Outage.Fraction*100, b.Arrivals)
	fmt.Printf("policy:   %s\n\n", policyName)
	fmt.Printf("%-22s %12s %12s\n", "", "baseline", policyName)
	fmt.Printf("%-22s %12d %12d\n", "messages forwarded", b.Forwarded, p.Forwarded)
	fmt.Printf("%-22s %12d %12d\n", "messages read", b.ReadCount, p.ReadCount)
	fmt.Printf("%-22s %12d %12d\n", "expired unread", b.Device.ExpiredUnread, p.Device.ExpiredUnread)
	fmt.Printf("%-22s %12d %12d\n", "link transfers down", b.Link.MessagesDown, p.Link.MessagesDown)
	fmt.Printf("%-22s %12.2f %12.2f\n", "battery used", b.Device.BatteryUsed, p.Device.BatteryUsed)
}
