// Prefetching runs the paper's central experiment interactively: the same
// randomized half-year scenario (overflowing topic, flaky network) is
// replayed under every forwarding policy, and the waste/loss trade-off of
// §3.1 is printed as a table. Buffer-based prefetching with a sensible
// limit keeps both inefficiencies low — the paper's headline result.
//
// Run with: go run ./examples/prefetching
package main

import (
	"fmt"
	"log"

	"lasthop/internal/core"
	"lasthop/internal/dist"
	"lasthop/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := sim.Config{
		Seed:         2026,
		Horizon:      180 * dist.Day,
		EventsPerDay: 32, // the topic overflows:
		ReadsPerDay:  2,  // the user consumes at most 2*8 = 16/day
		Max:          8,
	}
	cfg.Outage.Fraction = 0.7 // mostly on a bad link

	scenario, err := sim.NewScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %d notifications over 180 days, %d user reads, network down %.0f%% of the time\n\n",
		len(scenario.Arrivals), len(scenario.Reads), cfg.Outage.Fraction*100)

	policies := []struct {
		name string
		cfg  core.TopicConfig
	}{
		{"on-line (forward everything)", core.OnlineConfig(sim.TopicName)},
		{"pure on-demand", core.OnDemandConfig(sim.TopicName, cfg.Max)},
		{"buffer prefetch, limit 4", core.BufferConfig(sim.TopicName, cfg.Max, 4)},
		{"buffer prefetch, limit 32", core.BufferConfig(sim.TopicName, cfg.Max, 32)},
		{"buffer prefetch, limit 4096", core.BufferConfig(sim.TopicName, cfg.Max, 4096)},
		{"rate-based prefetch", core.RateConfig(sim.TopicName, cfg.Max)},
		{"unified (auto-tuned)", core.UnifiedConfig(sim.TopicName, cfg.Max)},
	}

	// One on-line baseline run serves every policy's comparison.
	configs := make([]core.TopicConfig, len(policies))
	for i, pol := range policies {
		configs[i] = pol.cfg
	}
	cmps, err := sim.CompareMany(scenario, configs...)
	if err != nil {
		return err
	}
	fmt.Printf("%-30s %10s %10s %12s %10s\n", "policy", "waste %", "loss %", "transferred", "read")
	for i, cmp := range cmps {
		fmt.Printf("%-30s %10.1f %10.1f %12d %10d\n",
			policies[i].name, cmp.WastePct, cmp.LossPct, cmp.Policy.Forwarded, cmp.Policy.ReadCount)
	}

	fmt.Println("\nReading the table:")
	fmt.Println("  - on-line forwarding never loses a message but transfers the whole")
	fmt.Println("    firehose; with the user reading half of it, ~50% is waste.")
	fmt.Println("  - pure on-demand transfers nothing in vain, but every read during an")
	fmt.Println("    outage comes up empty: messages the baseline user saw are lost.")
	fmt.Println("  - buffer-based prefetching with a limit near the daily read volume")
	fmt.Println("    (16-64) keeps BOTH inefficiencies at a few percent (paper §3.2).")
	return nil
}
