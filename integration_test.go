package lasthop_test

// End-to-end integration tests through the public facade: the full
// broker → proxy → device pipeline in virtual time, and a miniature
// version of the paper's central comparison.

import (
	"fmt"
	"testing"
	"time"

	"lasthop"
	"lasthop/internal/sim"
)

var start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type deviceForwarder struct {
	dev *lasthop.Device
}

func (f *deviceForwarder) ForwardBatch(b []*lasthop.Notification) error {
	return lasthop.ForwardEach(b, f.dev.Receive)
}

// pipeline owns one fully wired in-process system.
type pipeline struct {
	clock  *lasthop.VirtualClock
	link   *lasthop.Link
	proxy  *lasthop.Proxy
	device *lasthop.Device
	broker *lasthop.Broker
}

func newPipeline(t *testing.T, topicCfg lasthop.TopicConfig) *pipeline {
	t.Helper()
	clock := lasthop.NewVirtualClock(start)
	lnk := lasthop.NewLink(clock, true)
	fwd := &deviceForwarder{}
	proxy := lasthop.NewProxy(clock, fwd)
	dev := lasthop.NewDevice(clock, lnk, proxy, lasthop.DeviceConfig{
		RankThreshold: topicCfg.RankThreshold,
	})
	fwd.dev = dev
	lnk.OnChange(proxy.SetNetwork)
	if err := proxy.AddTopic(topicCfg); err != nil {
		t.Fatal(err)
	}
	broker := lasthop.NewBroker("hub")
	if err := broker.Advertise(topicCfg.Name, "pub"); err != nil {
		t.Fatal(err)
	}
	sub := lasthop.Subscription{
		Topic:      topicCfg.Name,
		Subscriber: "proxy",
		Options: lasthop.SubscriptionOptions{
			Max:       topicCfg.ReadSize,
			Threshold: topicCfg.RankThreshold,
		},
	}
	if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
		t.Fatal(err)
	}
	return &pipeline{clock: clock, link: lnk, proxy: proxy, device: dev, broker: broker}
}

func (p *pipeline) publish(t *testing.T, id lasthop.ID, topic string, rank float64, life time.Duration) {
	t.Helper()
	n := &lasthop.Notification{
		ID: id, Topic: topic, Publisher: "pub",
		Rank: rank, Published: p.clock.Now(),
	}
	if life > 0 {
		n.Expires = p.clock.Now().Add(life)
	}
	if err := p.broker.Publish(n); err != nil {
		t.Fatalf("publish %s: %v", id, err)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := lasthop.UnifiedConfig("news", 2)
	cfg.RankThreshold = 1
	p := newPipeline(t, cfg)

	// Publish while online: the unified policy prefetches the best.
	p.publish(t, "a", "news", 3, 0)
	p.publish(t, "spam", "news", 0.5, 0) // below threshold, never forwarded
	p.publish(t, "b", "news", 4, 0)
	p.clock.Advance(time.Minute)

	batch, err := p.device.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "b" || batch[1].ID != "a" {
		t.Fatalf("read %v, want [b a]", batch)
	}

	// Outage: messages spool on the proxy; an offline read sees nothing
	// new; reconnection catches the device up.
	p.link.SetUp(false)
	p.publish(t, "c", "news", 5, 0)
	p.clock.Advance(time.Minute)
	batch, err = p.device.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Fatalf("offline read returned %v", batch)
	}
	p.link.SetUp(true)
	p.clock.Advance(time.Minute)
	batch, err = p.device.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].ID != "c" {
		t.Fatalf("post-outage read %v, want [c]", batch)
	}
}

func TestFacadeRankRetraction(t *testing.T) {
	cfg := lasthop.BufferConfig("news", 4, 10)
	cfg.RankThreshold = 2
	p := newPipeline(t, cfg)

	p.publish(t, "hoax", "news", 4.9, 0)
	p.clock.Advance(time.Second)
	if p.device.QueueLen("news") != 1 {
		t.Fatal("notification not prefetched")
	}
	// The publisher retracts before the user reads: the device discards
	// its copy.
	if err := p.broker.PublishRankUpdate(lasthop.RankUpdate{Topic: "news", ID: "hoax", NewRank: 0}); err != nil {
		t.Fatal(err)
	}
	p.clock.Advance(time.Second)
	if p.device.QueueLen("news") != 0 {
		t.Fatal("retracted notification still on the device")
	}
	batch, err := p.device.Read("news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Fatalf("user read retracted content: %v", batch)
	}
}

func TestFacadeExpirationOnDevice(t *testing.T) {
	cfg := lasthop.BufferConfig("news", 4, 10)
	p := newPipeline(t, cfg)
	p.publish(t, "flash", "news", 5, time.Minute)
	p.clock.Advance(time.Second)
	if p.device.QueueLen("news") != 1 {
		t.Fatal("notification not prefetched")
	}
	p.clock.Advance(time.Hour)
	batch, err := p.device.Read("news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Fatalf("user read expired content: %v", batch)
	}
	if p.device.Stats().ExpiredUnread != 1 {
		t.Errorf("ExpiredUnread = %d", p.device.Stats().ExpiredUnread)
	}
}

func TestFacadeSimulatorHeadline(t *testing.T) {
	// The paper's headline through the public API: on a flaky link with
	// overflow, buffer prefetching beats both extremes on waste+loss.
	cfg := lasthop.SimConfig{Seed: 9, Horizon: 60 * 24 * time.Hour, EventsPerDay: 32, ReadsPerDay: 2, Max: 8}
	cfg.Outage.Fraction = 0.7
	sc, err := lasthop.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	score := func(pol lasthop.TopicConfig) float64 {
		cmp, err := lasthop.Compare(sc, pol)
		if err != nil {
			t.Fatal(err)
		}
		return cmp.WastePct + cmp.LossPct
	}
	online := score(lasthop.OnlineConfig(sim.TopicName))
	onDemand := score(lasthop.OnDemandConfig(sim.TopicName, 8))
	buffered := score(lasthop.BufferConfig(sim.TopicName, 8, 32))
	if buffered >= online || buffered >= onDemand {
		t.Errorf("buffer (%.1f) must beat online (%.1f) and on-demand (%.1f)",
			buffered, online, onDemand)
	}
	if buffered > 10 {
		t.Errorf("buffer waste+loss = %.1f, want a few percent", buffered)
	}
}

func TestFacadeMetrics(t *testing.T) {
	if got := lasthop.WastePct(10, 4); got != 60 {
		t.Errorf("WastePct = %v", got)
	}
	base := lasthop.IDSet{}
	base.Add("a")
	base.Add("b")
	pol := lasthop.IDSet{}
	pol.Add("a")
	if got := lasthop.LossPct(base, pol); got != 50 {
		t.Errorf("LossPct = %v", got)
	}
}

func TestFacadeManyTopics(t *testing.T) {
	// One proxy multiplexing many topics with different policies.
	clock := lasthop.NewVirtualClock(start)
	lnk := lasthop.NewLink(clock, true)
	fwd := &deviceForwarder{}
	proxy := lasthop.NewProxy(clock, fwd)
	dev := lasthop.NewDevice(clock, lnk, proxy, lasthop.DeviceConfig{})
	fwd.dev = dev
	lnk.OnChange(proxy.SetNetwork)

	broker := lasthop.NewBroker("hub")
	for i := 0; i < 20; i++ {
		topic := fmt.Sprintf("topic-%02d", i)
		var cfg lasthop.TopicConfig
		switch i % 4 {
		case 0:
			cfg = lasthop.OnlineConfig(topic)
		case 1:
			cfg = lasthop.OnDemandConfig(topic, 4)
		case 2:
			cfg = lasthop.BufferConfig(topic, 4, 8)
		default:
			cfg = lasthop.UnifiedConfig(topic, 4)
		}
		if err := proxy.AddTopic(cfg); err != nil {
			t.Fatal(err)
		}
		if err := broker.Advertise(topic, "pub"); err != nil {
			t.Fatal(err)
		}
		sub := lasthop.Subscription{Topic: topic, Subscriber: "proxy", Options: lasthop.SubscriptionOptions{Max: 4}}
		if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		topic := fmt.Sprintf("topic-%02d", i)
		for j := 0; j < 5; j++ {
			n := &lasthop.Notification{
				ID: lasthop.ID(fmt.Sprintf("%s-n%d", topic, j)), Topic: topic,
				Rank: float64(j), Published: clock.Now(),
			}
			if err := broker.Publish(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(time.Minute)
	total := 0
	for i := 0; i < 20; i++ {
		batch, err := dev.Read(fmt.Sprintf("topic-%02d", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	if total != 20*4 {
		t.Errorf("read %d messages across topics, want %d", total, 20*4)
	}
	if got := len(proxy.Topics()); got != 20 {
		t.Errorf("Topics = %d", got)
	}
}
