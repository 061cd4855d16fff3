// Quickstart wires the whole system together in one process: a broker, a
// last-hop proxy running the paper's unified prefetching algorithm, and a
// mobile device — all in virtual time, so the example runs instantly.
//
// A publisher posts ranked weather notifications; the device goes through
// a network outage; the user then checks messages and receives the
// highest-ranked unexpired ones, Max at a time.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type proxyForwarder struct {
	dev *device.Device
}

func (f *proxyForwarder) ForwardBatch(b []*msg.Notification) error {
	return core.ForwardEach(b, f.dev.Receive)
}

func run() error {
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewVirtual(start)

	// The last hop: a flaky wireless link between proxy and device.
	lastHop := link.New(clock, true)

	// The proxy runs the paper's unified prefetching algorithm: prefetch
	// limit auto-tuned to twice the average read size, expiration
	// threshold auto-tuned to the interval between reads.
	fwd := &proxyForwarder{}
	proxy := core.New(clock, fwd)
	phone := device.New(clock, lastHop, proxy, device.Config{RankThreshold: 1.0})
	fwd.dev = phone
	lastHop.OnChange(proxy.SetNetwork)

	topicCfg := core.UnifiedConfig("weather/tromsø", 3) // Max = 3 per read
	topicCfg.RankThreshold = 1.0                        // Threshold: skip rank < 1
	if err := proxy.AddTopic(topicCfg); err != nil {
		return err
	}

	// The routing substrate: a broker the proxy subscribes to on the
	// device's behalf.
	broker := pubsub.NewBroker("hub")
	if err := broker.Advertise("weather/tromsø", "met.no"); err != nil {
		return err
	}
	sub := msg.Subscription{
		Topic:      "weather/tromsø",
		Subscriber: "alice-proxy",
		Options:    msg.SubscriptionOptions{Max: 3, Threshold: 1.0},
	}
	if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
		return err
	}

	publish := func(id msg.ID, rank float64, life time.Duration, text string) {
		n := &msg.Notification{
			ID: id, Topic: "weather/tromsø", Publisher: "met.no",
			Rank: rank, Published: clock.Now(), Payload: []byte(text),
		}
		if life > 0 {
			n.Expires = clock.Now().Add(life)
		}
		if err := broker.Publish(n); err != nil {
			log.Printf("publish %s: %v", id, err)
		}
	}

	// Morning: a few routine updates arrive while the phone is online.
	publish("w1", 1.5, 48*time.Hour, "light rain expected")
	publish("w2", 0.5, 48*time.Hour, "pollen count unchanged") // below Threshold: never forwarded
	clock.Advance(1 * time.Hour)

	// The phone drops off the network (tunnel, airplane mode...).
	lastHop.SetUp(false)
	fmt.Println("-- phone goes offline --")

	// While offline, more notifications arrive, including an urgent one.
	publish("w3", 4.8, 12*time.Hour, "STORM WARNING: gale force winds tonight")
	publish("w4", 2.0, 48*time.Hour, "temperature dropping to -5C")
	publish("w5", 1.2, 30*time.Minute, "brief drizzle passing") // expires before anyone cares
	clock.Advance(2 * time.Hour)

	// The user checks messages while still offline: only what was
	// prefetched before the outage is available.
	batch, err := phone.Read("weather/tromsø", 3)
	if err != nil {
		return err
	}
	fmt.Println("offline read:")
	printBatch(batch)

	// Back online: the proxy catches the device up automatically.
	lastHop.SetUp(true)
	fmt.Println("-- phone back online --")
	clock.Advance(1 * time.Minute)

	batch, err = phone.Read("weather/tromsø", 3)
	if err != nil {
		return err
	}
	fmt.Println("online read (highest-ranked first):")
	printBatch(batch)

	snap, _ := proxy.Snapshot("weather/tromsø")
	fmt.Printf("\nproxy state: prefetch-limit=%d, forwarded=%d, history=%d\n",
		snap.PrefetchLimit, snap.Forwarded, snap.History)
	ds := phone.Stats()
	fmt.Printf("device: received=%d read=%d battery-used=%.1f\n",
		ds.Received, ds.ReadCount, ds.BatteryUsed)
	return nil
}

func printBatch(batch []*msg.Notification) {
	if len(batch) == 0 {
		fmt.Println("  (nothing)")
		return
	}
	for _, n := range batch {
		fmt.Printf("  [%.1f] %s: %s\n", n.Rank, n.ID, string(n.Payload))
	}
}
