package loadgen

import (
	"fmt"
	"sort"
	"time"

	"lasthop/internal/wire"
)

// Atlas returns the CI-able regression scenarios, each targeting one
// failure mode of the last-hop pipeline at its downscaled CI size (Scale 1
// finishes in seconds; full-size runs multiply via ScenarioOptions.Scale).
// The definitions are functions of nothing so every caller gets a fresh,
// unaliased copy.
func Atlas() []Scenario {
	return []Scenario{
		flashCrowd(),
		massReconnect(),
		rankStorm(),
		remapChurn(),
		quietFlood(),
		killRestart(),
	}
}

// FindScenario returns the named atlas entry.
func FindScenario(name string) (Scenario, error) {
	atlas := Atlas()
	names := make([]string, 0, len(atlas))
	for _, sc := range atlas {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("unknown scenario %q (have %v)", name, names)
}

// flashCrowd: a breaking-news spike — every device subscribed on-line to
// one topic, the whole burst published at once. The oracle is pure
// fan-out conservation: every copy pushed, nothing lost, nothing
// duplicated, and nothing wasted beyond the devices that never read.
func flashCrowd() Scenario {
	return Scenario{
		Name:        "flash-crowd",
		Description: "One hot topic, every device on-line, a single Poisson burst fanned out to all of them at once.",
		FailureMode: "Fan-out loss or duplication under per-device queue contention; push-path latency collapse.",
		Seed:        1001,
		Devices:     16,
		Topics:      1,
		Phases: []Phase{
			// A real flash crowd is thousands of publishes in one spike;
			// 960 per topic keeps the CI run under a second now that the
			// runner pipelines instantaneous bursts through batched
			// publishes (the earlier 240 was sized around one blocking ack
			// round trip per notification).
			{Name: "burst", PublishMean: 960, AwaitPushes: true},
			{Name: "drain", DrainReads: true},
		},
		Budget: Budget{
			MaxLost:       0,
			MaxDuplicates: 0,
			MaxWastePct:   0.5,
			MinReadPct:    95,
			// The pre-shared-frame datapath sustained ~10k deliveries/s on
			// this scenario (serial publish, clone-per-target fan-out); the
			// encode-once pipeline must clear twice that with headroom.
			MinDeliverPerSec: 20500,
			HopP99Ms: map[string]float64{
				"broker":     5000,
				"proxyQueue": 5000,
				"lastHop":    5000,
			},
		},
	}
}

// massReconnect: the post-partition thundering herd. The population
// hibernates behind a partition + cut, a flood lands on the spool, and
// then everyone redials at once through scripted connection refusals —
// stressing mux drain/resume and spool rehydration together.
func massReconnect() Scenario {
	return Scenario{
		Name:        "mass-reconnect",
		Description: "Partition and cut every device, flood their hibernated sessions, then redial the whole herd at once through connection refusals.",
		FailureMode: "Rehydration races and ghost-connection wheel closures losing or duplicating spooled notifications on the reconnect herd.",
		Seed:        1002,
		Devices:     24,
		Topics:      6,
		OnDemand:    true,
		Spool:       true,
		Phases: []Phase{
			{Name: "seed", PublishMean: 5, DrainReads: true},
			{Name: "blackout", Partition: 300 * time.Millisecond, CutConnections: true, DisconnectPct: 1.0, AwaitHibernate: true},
			{Name: "flood", PublishMean: 20, AwaitSpooled: true},
			{Name: "herd", RefuseConnects: 8, ReconnectAll: true, DrainReads: true},
		},
		Budget: Budget{
			MaxLost:       0,
			MaxDuplicates: 120,
			MaxWastePct:   1,
			MinReadPct:    95,
		},
	}
}

// rankStorm: publish into a delay stage, then retract half the batch with
// rank revisions before the delay elapses. The MinExpiredPct floor proves
// the revisions actually caught notes inside the stage (a broken delay
// path would deliver everything and still report zero lost).
func rankStorm() Scenario {
	return Scenario{
		Name:        "rank-storm",
		Description: "Publish through a 1.5s delay stage, then revise half the batch below the delivery threshold before the delay elapses.",
		FailureMode: "Rank revisions missing in-flight notes in the delay stage, or the stage delivering retracted copies anyway.",
		Seed:        1003,
		Devices:     8,
		Topics:      8,
		OnDemand:    true,
		Policy: wire.TopicPolicy{
			Mode:         "on-demand",
			Policy:       "on-demand",
			DelaySeconds: 1.5,
			Threshold:    3,
		},
		Phases: []Phase{
			{Name: "storm", PublishMean: 24, RankRevisePct: 0.5, ReviseToRank: 1},
			{Name: "settle", Duration: 2500 * time.Millisecond},
			{Name: "drain", DrainReads: true},
		},
		Budget: Budget{
			MaxLost:       0,
			MaxDuplicates: 0,
			MaxWastePct:   100, // expiries are the point; waste is unconstrained here
			MinReadPct:    25,
			MinExpiredPct: 25,
		},
	}
}

// remapChurn: §2.3 parameterized-subscription context changes — devices
// swap to the next topic of the family while the publishers keep the
// whole family hot. Remaps run in waves so every topic keeps a
// subscriber; the budget tolerates the waste inherent in departing
// mid-delivery but still demands conservation.
func remapChurn() Scenario {
	return Scenario{
		Name:        "remap-churn",
		Description: "Devices remap to the next topic of the family (unsubscribe + subscribe) concurrently with a steady publish wave across all topics.",
		FailureMode: "Context-remap races: deliveries routed to a stale subscription, double-delivered across the swap, or stranded on the old topic queue.",
		Seed:        1004,
		Devices:     12,
		Topics:      6,
		OnDemand:    true,
		Phases: []Phase{
			{Name: "steady", PublishMean: 8, DrainReads: true},
			{Name: "churn", PublishMean: 12, Duration: 1 * time.Second, RemapPct: 0.75},
			{Name: "drain", DrainReads: true},
		},
		Budget: Budget{
			MaxLost:       0,
			MaxDuplicates: 24,
			MaxWastePct:   60, // copies stranded by a mid-flight unsubscribe retire unread
			MinReadPct:    40,
		},
	}
}

// quietFlood: the overnight release flood. A capped on-line topic floods
// during its quiet window; at the window's end (a wall-clock minute
// boundary, wrapping midnight when the run straddles it) the release must
// deliver exactly the daily cap per device and stage the rest.
func quietFlood() Scenario {
	return Scenario{
		Name:        "quiet-flood",
		Description: "Flood a capped on-line topic inside its quiet window; the release at the window end must honor the daily cap exactly.",
		FailureMode: "Quiet-window release mischarging the daily cap at the window/day boundary: early release, over-delivery, or a stalled flood.",
		Seed:        1005,
		Devices:     6,
		Topics:      1,
		QuietCap:    3,
		Phases: []Phase{
			{Name: "flood", PublishMean: 48},
			{Name: "release", AwaitQuietEnd: true},
			{Name: "drain", DrainReads: true},
		},
		Budget: Budget{
			MaxLost:       0,
			MaxDuplicates: 0,
			MaxWastePct:   100, // staged overflow beyond the cap retires unread by design
			CapPerDevice:  3,
		},
	}
}

// killRestart: the crash the spool exists for. The whole population
// hibernates, half the load lands on disk as deltas, the host is killed
// outright and restarted on the same spool, the rest lands in the
// recovered sessions, and every device reconnects and reads back
// everything it was owed. Topics are pure on-demand, so nothing
// transfers before a READ and the spool chain is the only copy across
// the kill. At scale 1 it is the 200-device, 20-topic, ~4,000-publish
// drill that once exposed a first-contact deadlock.
func killRestart() Scenario {
	return Scenario{
		Name:        "kill-restart",
		Description: "Hibernate every session, spool half the load, kill the host and restart it on the same spool, spool the rest, then reconnect and drain.",
		FailureMode: "Spool recovery losing sessions or deltas across a crash: a session missing after the restart, an owed notification never read, or replay redelivering what was already consumed.",
		Seed:        1006,
		Devices:     200,
		Topics:      20,
		OnDemand:    true,
		Spool:       true,
		Policy:      wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"},
		Phases: []Phase{
			{Name: "hibernate", DisconnectPct: 1.0, AwaitHibernate: true},
			{Name: "first-half", PublishMean: 100, AwaitSpooled: true},
			{Name: "crash", KillRestart: true, PublishMean: 100, AwaitSpooled: true},
			{Name: "drain", ReconnectAll: true, DrainReads: true},
		},
		Budget: Budget{
			MaxLost: 0,
			// The runner holds every KillRestart scenario to one duplicate
			// per ten deliveries; this ceiling is that bound for the
			// ~40,000 deliveries owed at scale 1.
			MaxDuplicates: 4000,
			MaxWastePct:   1,
			MinReadPct:    95,
		},
	}
}
