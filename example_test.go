package lasthop_test

// Godoc examples for the public facade. They run in virtual time, so the
// output is deterministic.

import (
	"fmt"
	"time"

	"lasthop"
)

type exampleForwarder struct {
	dev *lasthop.Device
}

func (f *exampleForwarder) ForwardBatch(b []*lasthop.Notification) error {
	return lasthop.ForwardEach(b, f.dev.Receive)
}

// Example wires a broker, a proxy running the unified prefetching
// algorithm, and a device together, and survives a network outage.
func Example() {
	begin := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	clock := lasthop.NewVirtualClock(begin)
	lastHop := lasthop.NewLink(clock, true)

	fwd := &exampleForwarder{}
	proxy := lasthop.NewProxy(clock, fwd)
	phone := lasthop.NewDevice(clock, lastHop, proxy, lasthop.DeviceConfig{})
	fwd.dev = phone
	lastHop.OnChange(proxy.SetNetwork)

	cfg := lasthop.UnifiedConfig("news", 2) // Max = 2 per read
	if err := proxy.AddTopic(cfg); err != nil {
		fmt.Println("add topic:", err)
		return
	}

	broker := lasthop.NewBroker("hub")
	_ = broker.Advertise("news", "wire-service")
	_ = broker.Subscribe(lasthop.Subscription{
		Topic: "news", Subscriber: "phone-proxy",
		Options: lasthop.SubscriptionOptions{Max: 2},
	}, proxy.Subscriber())

	publish := func(id lasthop.ID, rank float64) {
		_ = broker.Publish(&lasthop.Notification{
			ID: id, Topic: "news", Publisher: "wire-service",
			Rank: rank, Published: clock.Now(),
		})
	}

	publish("breaking", 4.8)
	publish("minor", 1.2)
	lastHop.SetUp(false) // the phone enters a tunnel
	publish("missed-live", 3.0)
	lastHop.SetUp(true) // and comes out: the proxy catches it up
	clock.Advance(time.Minute)

	batch, _ := phone.Read("news", 2)
	for _, n := range batch {
		fmt.Printf("%s (rank %.1f)\n", n.ID, n.Rank)
	}
	// Output:
	// breaking (rank 4.8)
	// missed-live (rank 3.0)
}

// ExampleCompare runs the paper's central measurement: the same random
// scenario replayed under a policy and the on-line baseline, yielding
// waste and loss.
func ExampleCompare() {
	cfg := lasthop.SimConfig{
		Seed:         11,
		Horizon:      30 * 24 * time.Hour,
		EventsPerDay: 32,
		ReadsPerDay:  2,
		Max:          8,
	}
	cfg.Outage.Fraction = 0.5

	scenario, err := lasthop.NewScenario(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	cmp, err := lasthop.Compare(scenario, lasthop.OnDemandConfig("sim/topic", 8))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("on-demand has no waste: %v\n", cmp.WastePct == 0)
	fmt.Printf("on-demand loses messages under outages: %v\n", cmp.LossPct > 5)
	// Output:
	// on-demand has no waste: true
	// on-demand loses messages under outages: true
}

// ExampleWastePct shows the §3.1 waste metric.
func ExampleWastePct() {
	fmt.Printf("%.0f%%\n", lasthop.WastePct(32, 16))
	// Output: 50%
}
