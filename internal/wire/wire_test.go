package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/journal"
	"lasthop/internal/mobility"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// harness spins up a broker server, a proxy server chained to it, and
// returns their addresses.
type harness struct {
	broker     *BrokerServer
	proxy      *ProxyServer
	brokerAddr string
	proxyAddr  string
	stopBroker func()
	stopProxy  func()
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("test-broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()

	ps, err := NewProxyServer(bl.Addr().String(), "test-proxy", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ps.Serve(pl) }()

	h := &harness{
		broker:     bs,
		proxy:      ps,
		brokerAddr: bl.Addr().String(),
		proxyAddr:  pl.Addr().String(),
	}
	t.Cleanup(func() {
		ps.Close()
		bs.Close()
	})
	return h
}

func wireNote(id msg.ID, topic string, rank float64) *msg.Notification {
	return &msg.Notification{
		ID: id, Topic: topic, Rank: rank,
		Published: time.Now(),
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBrokerClientRoundTrip(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := DialBroker(h.brokerAddr, "subscriber")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var mu sync.Mutex
	var got []*msg.Notification
	var updates []msg.RankUpdate
	sub.OnPush(
		// The pushed notification is pool-owned; a consumer that retains it
		// keeps a clone and returns the original.
		func(n *msg.Notification) { mu.Lock(); got = append(got, n.Clone()); mu.Unlock(); burst.Notes.Put(n) },
		func(u msg.RankUpdate) { mu.Lock(); updates = append(updates, u); mu.Unlock() },
	)
	if err := sub.Subscribe(msg.Subscription{Topic: "news", Options: msg.SubscriptionOptions{Max: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "news", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "notification push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	if err := pub.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "n1", NewRank: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank update push", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(updates) == 1
	})
}

func TestBrokerErrors(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(wireNote("n1", "ghost", 3)); err == nil {
		t.Error("publish on unadvertised topic accepted")
	}
	if err := pub.Advertise("t", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "t", 3)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("n1", "t", 3)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := pub.Unsubscribe("nothing"); err == nil {
		t.Error("unsubscribe without subscription accepted")
	}
}

// TestBrokerCleanupKeepsNewerBinding pins the broker's connection cleanup:
// when two connections hello under one name and subscribe the same topic,
// the second binding replaces the first, and the first connection's exit
// must not remove it.
func TestBrokerCleanupKeepsNewerBinding(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	conns := func() int {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		return len(bs.conns)
	}

	pub, err := DialBroker(bl.Addr().String(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("t", ""); err != nil {
		t.Fatal(err)
	}
	var clients [2]*BrokerClient
	for i := range clients {
		c, err := DialBroker(bl.Addr().String(), "host")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(msg.Subscription{Topic: "t"}); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	got := make(chan msg.ID, 1)
	clients[1].OnPush(func(n *msg.Notification) { got <- n.ID; burst.Notes.Put(n) }, func(msg.RankUpdate) {})

	_ = clients[0].Close()
	// The handler's cleanup runs before it drops the connection.
	waitFor(t, "first connection's handler to exit", func() bool { return conns() == 2 })
	if err := pub.Publish(wireNote("n1", "t", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-got:
		if id != "n1" {
			t.Fatalf("second connection received %s, want n1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first connection's cleanup unsubscribed the second connection's binding")
	}
}

func TestEndToEndReadProtocol(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "on-demand", Max: 2}); err != nil {
		t.Fatal(err)
	}

	for i, rank := range []float64{1, 5, 3, 4, 2} {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("n%d", i)), "news", rank)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the proxy has spooled everything.
	waitFor(t, "proxy spool", func() bool {
		snap, ok := h.proxy.Snapshot("news")
		return ok && snap.Prefetch == 5
	})

	batch, err := dev.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "n1" || batch[1].ID != "n3" {
		t.Fatalf("read %v, want the two highest-ranked", batch)
	}
	// A second read must fetch the next-best, not retransfer read ones.
	batch, err = dev.Read("news", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "n2" || batch[1].ID != "n4" {
		t.Fatalf("second read %v", batch)
	}
}

func TestDisconnectedDeviceSpools(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	// Go offline: the proxy must treat this as a network outage.
	_ = dev.Close()
	// (The queue view is 0 from the start, so it cannot say the proxy has
	// seen the EOF; publishing before it has forwards into the dead socket.)
	waitFor(t, "proxy to notice disconnect", func() bool {
		sessions := h.proxy.Sessions()
		return len(sessions) == 1 && !sessions[0].Connected
	})

	for i := 0; i < 4; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("n%d", i)), "news", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "spool while offline", func() bool {
		snap, ok := h.proxy.Snapshot("news")
		return ok && snap.Prefetch == 4
	})

	// Reconnect: prefetching resumes (limit 10 swallows everything).
	dev2, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	waitFor(t, "catch-up prefetch", func() bool { return dev2.QueueLen("news") == 4 })

	batch, err := dev2.Read("news", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("read %d messages after reconnect, want 4", len(batch))
	}
}

func TestRankDropReachesDevice(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10, Threshold: 2}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("spam", "news", 5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prefetch", func() bool { return dev.QueueLen("news") == 1 })
	if err := pub.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "spam", NewRank: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank drop applied", func() bool { return dev.QueueLen("news") == 0 })
	_, _, drops := dev.Stats()
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
}

func TestDurableProxySurvivesRestart(t *testing.T) {
	// A journaled proxy that dies with spooled messages serves them
	// after a restart from the same journal.
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	journalPath := t.TempDir() + "/proxy.journal"

	startProxy := func() (*ProxyServer, string) {
		return startDurableProxy(t, bl.Addr().String(), journalPath)
	}

	pub, err := DialBroker(bl.Addr().String(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	// First life: subscribe, spool two messages while no device is
	// connected, then die.
	ps1, addr1 := startProxy()
	dev, err := DialProxy(addr1, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	_ = dev.Close()
	waitFor(t, "device disconnect", func() bool {
		snap, ok := ps1.Snapshot("news")
		return ok && snap.QueueSizeView == 0
	})
	for i := 0; i < 2; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("s%d", i)), "news", float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "spool", func() bool {
		snap, ok := ps1.Snapshot("news")
		return ok && snap.Prefetch == 2
	})
	ps1.Close() // crash

	// Second life: the journal restores the topic and the spool, and the
	// upstream subscription is re-established.
	ps2, addr2 := startProxy()
	defer ps2.Close()
	snap, ok := ps2.Snapshot("news")
	if !ok {
		t.Fatal("restarted proxy lost the topic")
	}
	if snap.Prefetch != 2 {
		t.Fatalf("restarted proxy spool = %+v, want 2 prefetchable", snap)
	}
	dev2, err := DialProxy(addr2, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	waitFor(t, "post-restart catch-up", func() bool { return dev2.QueueLen("news") == 2 })

	// New traffic still flows (the upstream resubscription worked).
	if err := pub.Publish(wireNote("s2", "news", 5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh push after restart", func() bool { return dev2.QueueLen("news") == 3 })
}

// TestDurableProxyCloseReleasesJournal pins that Close syncs and closes
// the proxy's journal: the recorder's next append reports the closed
// journal instead of writing to a descriptor nothing releases.
func TestDurableProxyCloseReleasesJournal(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	ps, _ := startDurableProxy(t, bl.Addr().String(), t.TempDir()+"/proxy.journal")
	rec := ps.api.(*journal.Recorder)
	ps.Close()
	if err := rec.SetNetwork(false); err == nil || !strings.Contains(err.Error(), "journal closed") {
		t.Fatalf("append after Close: %v, want the closed-journal error", err)
	}
}

// startDurableProxy serves a proxy journaling to journalPath, recovering
// whatever the journal already holds.
func startDurableProxy(t *testing.T, brokerAddr, journalPath string) (*ProxyServer, string) {
	t.Helper()
	ps, err := NewProxyServerOpts(ProxyOptions{
		BrokerAddr:  brokerAddr,
		Name:        "durable-proxy",
		JournalPath: journalPath,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ps.Serve(pl) }()
	return ps, pl.Addr().String()
}

func TestDeviceRedialKeepsCacheAndSubscriptions(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("cached", "news", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prefetch before drop", func() bool { return dev.QueueLen("news") == 1 })

	// The radio drops: the device keeps its cache and redials (a new
	// accepted connection replaces the stale one on the proxy side).
	_ = dev.conn.Close()
	if err := dev.Redial(h.proxyAddr); err != nil {
		t.Fatal(err)
	}
	if dev.QueueLen("news") != 1 {
		t.Fatalf("redial lost the cache: %d", dev.QueueLen("news"))
	}
	// The automatic resubscription restores push delivery.
	if err := pub.Publish(wireNote("fresh", "news", 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push after redial", func() bool { return dev.QueueLen("news") == 2 })

	batch, err := dev.Read("news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("read %d after redial, want 2", len(batch))
	}
}

func TestProxyRejectsUnknownPolicy(t *testing.T) {
	h := newHarness(t)
	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "telepathy"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := dev.Subscribe("news", TopicPolicy{Mode: "sideways"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := dev.Unsubscribe("never-subscribed"); err == nil {
		t.Error("unsubscribe of unknown topic accepted")
	}
}

func TestDeviceMobilityDrivesWireSubscriptions(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for _, city := range []string{"oslo", "tromso"} {
		if err := pub.Advertise("traffic/"+city, ""); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	tracker := mobility.NewTracker(NewDeviceMobility(dev), "phone")
	rule := mobility.Rule{
		Name:          "traffic",
		TopicTemplate: "traffic/${city}",
		Options:       msg.SubscriptionOptions{Max: 4, Mode: msg.OnLine},
	}
	if err := tracker.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if err := tracker.UpdateContext(mobility.Context{"city": "oslo"}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("o1", "traffic/oslo", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oslo alert", func() bool { return dev.QueueLen("traffic/oslo") == 1 })

	// Moving re-subscribes over the wire.
	if err := tracker.UpdateContext(mobility.Context{"city": "tromso"}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("t1", "traffic/tromso", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tromso alert", func() bool { return dev.QueueLen("traffic/tromso") == 1 })
	// The old city's topic is gone from the proxy.
	if _, ok := h.proxy.Snapshot("traffic/oslo"); ok {
		t.Error("old city still registered on the proxy")
	}
}

func TestTopicPolicyToConfig(t *testing.T) {
	cfg, err := TopicPolicy{}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.AutoPrefetchLimit || !cfg.AutoExpirationThreshold {
		t.Error("empty policy should map to the unified configuration")
	}
	cfg, err = TopicPolicy{Policy: "buffer", PrefetchLimit: 42, Max: 8, Threshold: 2.5, DelaySeconds: 60}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PrefetchLimit != 42 || cfg.AutoPrefetchLimit || cfg.RankThreshold != 2.5 ||
		cfg.ReadSize != 8 || cfg.Delay != time.Minute {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, err := (TopicPolicy{Policy: "nope"}).ToConfig("t"); err == nil {
		t.Error("bad policy accepted")
	}
	cfg, err = TopicPolicy{Mode: "on-line"}.ToConfig("t")
	if err != nil || cfg.Mode != msg.OnLine {
		t.Errorf("on-line mode mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{
		Mode:           "on-line",
		DailyOnlineCap: 10,
		InterruptRank:  4.5,
		QuietWindows:   []QuietWindowSpec{{StartMinutes: 540, EndMinutes: 600}},
	}.ToConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DailyOnlineCap != 10 || cfg.InterruptRank != 4.5 || len(cfg.Quiet) != 1 ||
		cfg.Quiet[0].Start != 9*time.Hour || cfg.Quiet[0].End != 10*time.Hour {
		t.Errorf("hybrid delivery mapping: %+v", cfg)
	}
	// Start > End wraps around midnight and is valid (e.g. 22:00-07:00).
	cfg, err = (TopicPolicy{QuietWindows: []QuietWindowSpec{{StartMinutes: 1320, EndMinutes: 420}}}).ToConfig("t")
	if err != nil {
		t.Errorf("overnight quiet window rejected: %v", err)
	} else if cfg.Quiet[0].Start != 22*time.Hour || cfg.Quiet[0].End != 7*time.Hour {
		t.Errorf("overnight quiet window mapping: %+v", cfg.Quiet)
	}
	if _, err := (TopicPolicy{QuietWindows: []QuietWindowSpec{{StartMinutes: 600, EndMinutes: 600}}}).ToConfig("t"); err == nil {
		t.Error("empty quiet window accepted")
	}
	// History bounds pass through: an explicit limit is honored, zero
	// keeps the core default, and negative means unbounded (core maps it
	// at withDefaults time, so it must survive ToConfig untouched).
	cfg, err = TopicPolicy{HistoryLimit: 4}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != 4 {
		t.Errorf("HistoryLimit mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != 0 {
		t.Errorf("default HistoryLimit mapping: %+v, %v", cfg, err)
	}
	cfg, err = TopicPolicy{HistoryLimit: -1}.ToConfig("t")
	if err != nil || cfg.HistoryLimit != -1 {
		t.Errorf("unbounded HistoryLimit mapping: %+v, %v", cfg, err)
	}
}
