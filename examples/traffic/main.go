// Traffic demonstrates the paper's §2.3 context handling: a subscription
// to traffic updates parameterized on the user's current city. When a
// GPS-equipped device reports a new location, the mobility tracker
// performs the unsubscribe/subscribe pair; urgent alerts ride an on-line
// topic and reach the device immediately.
//
// Run with: go run ./examples/traffic
package main

import (
	"fmt"
	"log"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/mobility"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

type proxyForwarder struct {
	dev *device.Device
}

func (f *proxyForwarder) ForwardBatch(b []*msg.Notification) error {
	return core.ForwardEach(b, f.dev.Receive)
}

// proxyManager adapts broker+proxy as the tracker's subscription surface:
// a rule subscription creates the proxy topic and the broker subscription.
type proxyManager struct {
	broker *pubsub.Broker
	proxy  *core.Proxy
}

func (m *proxyManager) Subscribe(s msg.Subscription) error {
	cfg := core.UnifiedConfig(s.Topic, s.Options.Max)
	cfg.RankThreshold = s.Options.Threshold
	cfg.Mode = s.Options.Mode
	if err := m.proxy.AddTopic(cfg); err != nil {
		return err
	}
	return m.broker.Subscribe(s, m.proxy.Subscriber())
}

func (m *proxyManager) Unsubscribe(topic, subscriber string) error {
	if err := m.broker.Unsubscribe(topic, subscriber); err != nil {
		return err
	}
	return m.proxy.RemoveTopic(topic)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2026, 7, 5, 8, 0, 0, 0, time.UTC)
	clock := simtime.NewVirtual(start)
	lastHop := link.New(clock, true)

	fwd := &proxyForwarder{}
	proxy := core.New(clock, fwd)
	phone := device.New(clock, lastHop, proxy, device.Config{})
	fwd.dev = phone
	lastHop.OnChange(proxy.SetNetwork)

	broker := pubsub.NewBroker("hub")
	for _, city := range []string{"oslo", "tromsø"} {
		if err := broker.Advertise("traffic/"+city, "roads.no"); err != nil {
			return err
		}
	}

	// The context tracker owns the parameterized subscription: traffic
	// updates for whatever city the user happens to be in, delivered
	// on-line (urgent alerts should interrupt).
	tracker := mobility.NewTracker(&proxyManager{broker: broker, proxy: proxy}, "carol-proxy")
	rule := mobility.Rule{
		Name:          "local-traffic",
		TopicTemplate: "traffic/${city}",
		Options: msg.SubscriptionOptions{
			Max:       8,
			Threshold: 2,
			Mode:      msg.OnLine,
		},
	}
	if err := tracker.AddRule(rule); err != nil {
		return err
	}

	publish := func(city string, id msg.ID, rank float64, text string) {
		n := &msg.Notification{
			ID: id, Topic: "traffic/" + city, Publisher: "roads.no",
			Rank: rank, Published: clock.Now(),
			Expires: clock.Now().Add(2 * time.Hour),
			Payload: []byte(text),
		}
		if err := broker.Publish(n); err != nil {
			log.Printf("publish: %v", err)
		}
	}

	// Carol starts her day in Oslo.
	if err := tracker.UpdateContext(mobility.Context{"city": "oslo"}); err != nil {
		return err
	}
	fmt.Println("GPS: oslo — active subscriptions:", tracker.ActiveTopics())
	publish("oslo", "o1", 4.5, "E18 closed after accident at Bygdøy")
	publish("tromsø", "t1", 4.9, "avalanche warning on E8") // other city: not subscribed
	clock.Advance(time.Minute)
	show(phone, "traffic/oslo")

	// She flies north; the device reports the new location and the
	// tracker resubscribes.
	if err := tracker.UpdateContext(mobility.Context{"city": "tromsø"}); err != nil {
		return err
	}
	fmt.Println("\nGPS: tromsø — active subscriptions:", tracker.ActiveTopics())
	publish("tromsø", "t2", 4.2, "E8 reopened southbound")
	publish("oslo", "o2", 4.0, "ring road congestion") // old city: no longer subscribed
	clock.Advance(time.Minute)
	show(phone, "traffic/tromsø")

	// GPS signal lost: the rule suspends and traffic stops.
	if err := tracker.UpdateContext(mobility.Context{}); err != nil {
		return err
	}
	fmt.Println("\nGPS lost — active subscriptions:", tracker.ActiveTopics())

	ds := phone.Stats()
	fmt.Printf("\ntotal messages pushed to the device: %d (only the user's current city, above threshold)\n",
		ds.Received)
	return nil
}

func show(phone *device.Device, topic string) {
	batch, err := phone.Read(topic, 8)
	if err != nil {
		log.Printf("read: %v", err)
		return
	}
	for _, n := range batch {
		fmt.Printf("  alert [%.1f] %s: %s\n", n.Rank, n.ID, string(n.Payload))
	}
	if len(batch) == 0 {
		fmt.Println("  (no alerts)")
	}
}
