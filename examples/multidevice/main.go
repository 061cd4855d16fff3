// Multidevice demonstrates the paper's §4 future-work item: cooperation
// among one user's devices. A phone with terrible connectivity and a
// well-connected laptop subscribe to the same short-lived alerts; over an
// ad-hoc network the phone borrows from the laptop's cache, so the user
// keeps reading even while the phone's own last hop is down — and copies
// the user already read are released from the laptop instead of rotting
// into waste.
//
// Run with: go run ./examples/multidevice
package main

import (
	"fmt"
	"log"
	"time"

	"lasthop"
	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

const topic = "transit/alerts"

type fwd struct {
	dev *device.Device
}

func (f *fwd) ForwardBatch(b []*msg.Notification) error { return core.ForwardEach(b, f.dev.Receive) }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildMember(clock *simtime.Virtual, broker *pubsub.Broker, name string) (lasthop.DeviceGroupMember, error) {
	lnk := link.New(clock, true)
	f := &fwd{}
	proxy := core.New(clock, f)
	dev := device.New(clock, lnk, proxy, device.Config{})
	f.dev = dev
	lnk.OnChange(proxy.SetNetwork)
	if err := proxy.AddTopic(core.BufferConfig(topic, 4, 16)); err != nil {
		return lasthop.DeviceGroupMember{}, err
	}
	sub := msg.Subscription{Topic: topic, Subscriber: name, Options: msg.SubscriptionOptions{Max: 4}}
	if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
		return lasthop.DeviceGroupMember{}, err
	}
	return lasthop.DeviceGroupMember{Name: name, Device: dev, Link: lnk}, nil
}

func run() error {
	clock := simtime.NewVirtual(time.Date(2026, 7, 5, 7, 0, 0, 0, time.UTC))
	broker := pubsub.NewBroker("hub")
	if err := broker.Advertise(topic, "transit"); err != nil {
		return err
	}

	phone, err := buildMember(clock, broker, "phone")
	if err != nil {
		return err
	}
	laptop, err := buildMember(clock, broker, "laptop")
	if err != nil {
		return err
	}
	group, err := lasthop.NewDeviceGroup(phone, laptop)
	if err != nil {
		return err
	}

	publish := func(id msg.ID, rank float64, text string) {
		n := &msg.Notification{
			ID: id, Topic: topic, Publisher: "transit",
			Rank: rank, Published: clock.Now(),
			Expires: clock.Now().Add(4 * time.Hour),
			Payload: []byte(text),
		}
		if err := broker.Publish(n); err != nil {
			log.Printf("publish: %v", err)
		}
	}

	// The phone spends the morning in the subway: its link is down, but
	// the laptop at the office keeps receiving.
	phone.Link.SetUp(false)
	fmt.Println("phone offline (subway); laptop online at the office")
	publish("a1", 4.5, "line 3 suspended between downtown stations")
	publish("a2", 2.0, "minor delays on the airport express")
	clock.Advance(30 * time.Minute)

	// The user checks the phone: without cooperation this read would be
	// empty; with the ad-hoc network the laptop's cache serves it.
	batch, err := group.Read("phone", topic, 4)
	if err != nil {
		return err
	}
	fmt.Println("\nphone read (borrowed from the laptop's cache):")
	for _, n := range batch {
		fmt.Printf("  [%.1f] %s: %s\n", n.Rank, n.ID, string(n.Payload))
	}

	// The laptop's copies were released by the read gossip: no waste.
	fmt.Printf("\nlaptop queue after gossip: %d unread copies (released instead of rotting)\n",
		laptop.Device.QueueLen(topic))

	stats := group.Stats()
	fmt.Printf("cooperation stats: borrowed=%d released=%d reads=%d\n",
		stats.Borrowed, stats.Released, stats.Reads)

	// Later the phone is back online and reads directly.
	phone.Link.SetUp(true)
	publish("a3", 3.5, "line 3 service restored")
	clock.Advance(10 * time.Minute)
	batch, err = group.Read("phone", topic, 4)
	if err != nil {
		return err
	}
	fmt.Println("\nphone read (own link again):")
	for _, n := range batch {
		fmt.Printf("  [%.1f] %s: %s\n", n.Rank, n.ID, string(n.Payload))
	}
	return nil
}
