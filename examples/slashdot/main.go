// Slashdot reproduces the paper's §2.2 example: subscribe to a news topic
// with Threshold = 4.5 (out of 5) and Max = 30, leave for a month-long
// vacation, and on return read "the most important bits from the past
// month" in one sitting — provided publishers attached ranks and generous
// expirations.
//
// Run with: go run ./examples/slashdot
package main

import (
	"fmt"
	"log"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/dist"
	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

const topic = "slashdot/frontpage"

type proxyForwarder struct {
	dev *device.Device
}

func (f *proxyForwarder) ForwardBatch(b []*msg.Notification) error {
	return core.ForwardEach(b, f.dev.Receive)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewVirtual(start)
	lastHop := link.New(clock, true)

	fwd := &proxyForwarder{}
	proxy := core.New(clock, fwd)
	phone := device.New(clock, lastHop, proxy, device.Config{RankThreshold: 4.5})
	fwd.dev = phone
	lastHop.OnChange(proxy.SetNetwork)

	// The subscription from the paper: at most 30 highest-ranked stories
	// at a time, nothing below rank 4.5.
	cfg := core.UnifiedConfig(topic, 30)
	cfg.RankThreshold = 4.5
	if err := proxy.AddTopic(cfg); err != nil {
		return err
	}

	broker := pubsub.NewBroker("hub")
	if err := broker.Advertise(topic, "slashdot"); err != nil {
		return err
	}
	sub := msg.Subscription{
		Topic:      topic,
		Subscriber: "bob-proxy",
		Options:    msg.SubscriptionOptions{Max: 30, Threshold: 4.5},
	}
	if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
		return err
	}

	// Bob's phone stays home in a drawer: the last hop is down for the
	// whole vacation.
	lastHop.SetUp(false)
	fmt.Println("Bob leaves for a month; the phone is offline.")

	// A month of Slashdot: ~40 stories/day with ranks spread over [0, 5]
	// and 90-day expirations (stories do not expire too quickly).
	rng := dist.New(2026)
	published := 0
	aboveThreshold := 0
	for day := 0; day < 30; day++ {
		for i := 0; i < 40; i++ {
			rank := rng.Uniform(0, 5)
			id := msg.ID(fmt.Sprintf("story-%02d-%02d", day, i))
			n := &msg.Notification{
				ID: id, Topic: topic, Publisher: "slashdot",
				Rank: rank, Published: clock.Now(),
				Expires: clock.Now().Add(90 * 24 * time.Hour),
				Payload: []byte(fmt.Sprintf("story from day %d", day)),
			}
			if err := broker.Publish(n); err != nil {
				return err
			}
			published++
			if rank >= 4.5 {
				aboveThreshold++
			}
			clock.Advance(time.Duration(rng.Exp(float64(36 * time.Minute))))
		}
	}
	fmt.Printf("While away: %d stories published, %d of them ranked >= 4.5.\n",
		published, aboveThreshold)

	snap, _ := proxy.Snapshot(topic)
	fmt.Printf("The proxy collected them: %d acceptable stories queued, 0 transferred.\n\n",
		snap.Prefetch+snap.Holding+snap.Outgoing)

	// Bob returns, the phone reconnects, and he checks messages once.
	lastHop.SetUp(true)
	clock.Advance(time.Minute)
	batch, err := phone.Read(topic, 30)
	if err != nil {
		return err
	}
	fmt.Printf("Back from vacation, one read returns the %d most important stories:\n", len(batch))
	for i, n := range batch {
		if i < 5 || i >= len(batch)-2 {
			fmt.Printf("  %2d. [%.2f] %s\n", i+1, n.Rank, n.ID)
		} else if i == 5 {
			fmt.Println("      ...")
		}
	}
	ds := phone.Stats()
	fmt.Printf("\nTransfers over the last hop: %d (instead of %d) — volume limiting saved %.0f%%.\n",
		ds.Received, published, 100*(1-float64(ds.Received)/float64(published)))
	return nil
}
