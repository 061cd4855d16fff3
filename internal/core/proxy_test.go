package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeDevice is a BatchForwarder that takes a burst one notification at a
// time and records deliveries. It can be told to fail at once (fail), or
// after that many more deliveries (failAfter).
type fakeDevice struct {
	received  []*msg.Notification
	fail      bool
	failAfter int
}

var _ BatchForwarder = (*fakeDevice)(nil)

func (d *fakeDevice) ForwardBatch(batch []*msg.Notification) error {
	return ForwardEach(batch, func(n *msg.Notification) error {
		if d.fail {
			return errors.New("link failure injected")
		}
		d.received = append(d.received, n)
		if d.failAfter > 0 {
			d.failAfter--
			d.fail = d.failAfter == 0
		}
		return nil
	})
}

func (d *fakeDevice) ids() []msg.ID {
	out := make([]msg.ID, len(d.received))
	for i, n := range d.received {
		out[i] = n.ID
	}
	return out
}

// newTestClock returns the scheduler every core test runs on: Virtual,
// the one deterministic scheduler. The live wheel's tick walk is tested
// against it in internal/simtime.
func newTestClock(start time.Time) *simtime.Virtual { return simtime.NewVirtual(start) }

type fixture struct {
	sched *simtime.Virtual
	dev   *fakeDevice
	proxy *Proxy
}

func newFixture(t *testing.T, cfg TopicConfig) *fixture {
	t.Helper()
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(sched, dev)
	if err := p.AddTopic(cfg); err != nil {
		t.Fatalf("AddTopic: %v", err)
	}
	return &fixture{sched: sched, dev: dev, proxy: p}
}

func (f *fixture) note(id msg.ID, rank float64, life time.Duration) *msg.Notification {
	n := &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: f.sched.Now()}
	if life > 0 {
		n.Expires = f.sched.Now().Add(life)
	}
	return n
}

func (f *fixture) snapshot(t *testing.T) TopicSnapshot {
	t.Helper()
	s, ok := f.proxy.Snapshot("t")
	if !ok {
		t.Fatal("topic t missing")
	}
	return s
}

func TestAddTopicValidation(t *testing.T) {
	p := New(simtime.NewVirtual(t0), &fakeDevice{})
	if err := p.AddTopic(TopicConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if err := p.AddTopic(TopicConfig{Name: "t", ReadSize: -1}); err == nil {
		t.Error("negative read size accepted")
	}
	if err := p.AddTopic(OnlineConfig("t")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTopic(OnlineConfig("t")); err == nil {
		t.Error("duplicate topic accepted")
	}
	if err := p.RemoveTopic("ghost"); err == nil {
		t.Error("removing unknown topic succeeded")
	}
	if err := p.RemoveTopic("t"); err != nil {
		t.Error(err)
	}
	if got := p.Topics(); len(got) != 0 {
		t.Errorf("Topics = %v", got)
	}
}

func TestOnlineForwardsImmediately(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.Notify(f.note("a", 1, 0))
	f.proxy.Notify(f.note("b", 5, 0))
	if got := f.dev.ids(); len(got) != 2 {
		t.Fatalf("forwarded %v", got)
	}
	s := f.snapshot(t)
	if s.Outgoing != 0 || s.Prefetch != 0 || s.QueueSizeView != 2 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestOnlineQueuesDuringOutage(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.SetNetwork(false)
	f.proxy.Notify(f.note("a", 1, 0))
	f.proxy.Notify(f.note("b", 5, 0))
	if len(f.dev.received) != 0 {
		t.Fatal("forwarded during outage")
	}
	if s := f.snapshot(t); s.Outgoing != 2 {
		t.Errorf("Outgoing = %d", s.Outgoing)
	}
	f.proxy.SetNetwork(true)
	got := f.dev.ids()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("forwarded %v, want [b a] (rank order)", got)
	}
}

func TestOnDemandNeverPrefetches(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 8))
	for i := 0; i < 5; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), float64(i), 0))
	}
	if len(f.dev.received) != 0 {
		t.Fatalf("on-demand forwarded %v", f.dev.ids())
	}
	if s := f.snapshot(t); s.Prefetch != 5 {
		t.Errorf("Prefetch = %d", s.Prefetch)
	}
}

func TestOnDemandReadSendsBest(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 2))
	for i := 0; i < 5; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), float64(i), 0))
	}
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 2}); err != nil {
		t.Fatal(err)
	}
	got := f.dev.ids()
	if len(got) != 2 || got[0] != "e" || got[1] != "d" {
		t.Errorf("read sent %v, want [e d]", got)
	}
}

func TestReadRequestsBetterDataOnly(t *testing.T) {
	// If the client already holds the best events, the proxy must not
	// transfer anything (§3.5: a read is a request for better data).
	f := newFixture(t, OnDemandConfig("t", 2))
	f.proxy.Notify(f.note("hi", 9, 0))
	f.proxy.Notify(f.note("lo", 1, 0))
	// Simulate that "hi" already reached the client.
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "hi" {
		t.Fatalf("setup read sent %v", got)
	}
	f.dev.received = nil
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1, QueueSize: 1, ClientEvents: []msg.ID{"hi"}}); err != nil {
		t.Fatal(err)
	}
	if len(f.dev.received) != 0 {
		t.Errorf("read transferred %v although client holds the best", f.dev.ids())
	}
	// But a read for two items sends the runner-up.
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 2, QueueSize: 1, ClientEvents: []msg.ID{"hi"}}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "lo" {
		t.Errorf("read sent %v, want [lo]", got)
	}
}

func TestReadUnknownClientEventsOccupySlots(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 2))
	f.proxy.Notify(f.note("x", 3, 0))
	f.proxy.Notify(f.note("y", 2, 0))
	// Client claims an event the proxy never heard of; it still occupies
	// one of the two read slots, so only the better note fills the other.
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 2, QueueSize: 1, ClientEvents: []msg.ID{"ghost"}}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "x" {
		t.Errorf("read sent %v, want [x]", got)
	}
}

func TestReadValidation(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 2))
	if err := f.proxy.Read(msg.ReadRequest{Topic: "ghost", N: 1}); err == nil {
		t.Error("read of unknown topic accepted")
	}
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: -1}); err == nil {
		t.Error("invalid read accepted")
	}
}

func TestRankThresholdFiltering(t *testing.T) {
	cfg := OnDemandConfig("t", 8)
	cfg.RankThreshold = 4.5
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("low", 4.4, 0))
	f.proxy.Notify(f.note("ok", 4.5, 0))
	f.proxy.Notify(f.note("hi", 5, 0))
	s := f.snapshot(t)
	if s.Prefetch != 2 {
		t.Errorf("Prefetch = %d, want 2", s.Prefetch)
	}
	if f.proxy.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d", f.proxy.Stats().Rejected)
	}
	// The filtered event is still remembered for rank revisions.
	if s.History != 3 {
		t.Errorf("History = %d, want 3", s.History)
	}
}

func TestBufferPrefetchRespectsLimit(t *testing.T) {
	f := newFixture(t, BufferConfig("t", 8, 3))
	for i := 0; i < 10; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), float64(i), 0))
	}
	if len(f.dev.received) != 3 {
		t.Fatalf("prefetched %d, want 3", len(f.dev.received))
	}
	// The three highest-ranked at the time of each forwarding decision.
	s := f.snapshot(t)
	if s.QueueSizeView != 3 || s.Prefetch != 7 {
		t.Errorf("snapshot = %+v", s)
	}
	// A read frees room: client read 2, queue drops to 1.
	f.dev.received = nil
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 2, QueueSize: 3, ClientEvents: []msg.ID{"j", "i"}}); err != nil {
		t.Fatal(err)
	}
	// Proxy sets its view to 3 (including the 2 being read), sends
	// nothing better than j,i... then prefetches while view < limit.
	if s := f.snapshot(t); s.QueueSizeView < 3 {
		t.Errorf("QueueSizeView = %d", s.QueueSizeView)
	}
}

func TestBufferPrefetchHighestRankedFirst(t *testing.T) {
	f := newFixture(t, BufferConfig("t", 8, 2))
	f.proxy.SetNetwork(false)
	ranks := []float64{1, 9, 5, 7, 3}
	for i, r := range ranks {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), r, 0))
	}
	f.proxy.SetNetwork(true)
	got := f.dev.ids()
	if len(got) != 2 || got[0] != "b" || got[1] != "d" {
		t.Errorf("prefetched %v, want [b d]", got)
	}
}

func TestAutoPrefetchLimitTracksDailyVolume(t *testing.T) {
	f := newFixture(t, UnifiedConfig("t", 4))
	if got := f.snapshot(t).PrefetchLimit; got != 8 {
		t.Errorf("initial limit = %d, want 2*ReadSize = 8", got)
	}
	// Reads of 10 every 12 hours: daily volume 20, limit 2x = 40.
	for i := 0; i < 5; i++ {
		if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 10}); err != nil {
			t.Fatal(err)
		}
		f.sched.Advance(12 * time.Hour)
	}
	if got := f.snapshot(t).PrefetchLimit; got != 40 {
		t.Errorf("limit = %d, want 2 * daily volume = 40", got)
	}
	// The user speeds up to 10 every 6 hours: the limit follows (the
	// moving window still remembers some 12h gaps, so it lands between
	// 40 and 80 and keeps climbing).
	for i := 0; i < 20; i++ {
		if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 10}); err != nil {
			t.Fatal(err)
		}
		f.sched.Advance(6 * time.Hour)
	}
	if got := f.snapshot(t).PrefetchLimit; got != 80 {
		t.Errorf("limit = %d, want 80 after the window fills with 6h gaps", got)
	}
}

func TestAutoExpirationThresholdTracksReadInterval(t *testing.T) {
	f := newFixture(t, UnifiedConfig("t", 8))
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 8}); err != nil {
		t.Fatal(err)
	}
	f.sched.Advance(4 * time.Hour)
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 8}); err != nil {
		t.Fatal(err)
	}
	if got := f.snapshot(t).ExpirationThreshold; got != 4*time.Hour {
		t.Errorf("ExpirationThreshold = %v, want 4h", got)
	}
}

func TestHoldingQueueShortLivedEvents(t *testing.T) {
	cfg := BufferConfig("t", 8, 100)
	cfg.ExpirationThreshold = time.Hour
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("short", 5, 10*time.Minute))
	f.proxy.Notify(f.note("long", 1, 10*time.Hour))
	f.proxy.Notify(f.note("forever", 1, 0))
	// Short-lived event is held back from prefetching...
	got := f.dev.ids()
	if len(got) != 2 || got[0] != "long" || got[1] != "forever" {
		t.Fatalf("prefetched %v, want [long forever]", got)
	}
	if s := f.snapshot(t); s.Holding != 1 {
		t.Errorf("Holding = %d", s.Holding)
	}
	// ...but is still served on an explicit read.
	f.dev.received = nil
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1, QueueSize: 2, ClientEvents: []msg.ID{"long"}}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "short" {
		t.Errorf("read sent %v, want [short]", got)
	}
}

func TestExpirationRemovesFromQueues(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 8))
	f.proxy.Notify(f.note("a", 5, time.Hour))
	f.proxy.Notify(f.note("b", 1, 0))
	f.sched.Advance(2 * time.Hour)
	s := f.snapshot(t)
	if s.Prefetch != 1 {
		t.Errorf("Prefetch = %d, want 1 after expiry", s.Prefetch)
	}
	if f.proxy.Stats().Expirations != 1 {
		t.Errorf("Expirations = %d", f.proxy.Stats().Expirations)
	}
	// The expired event is not served on reads.
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 8}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "b" {
		t.Errorf("read sent %v, want [b]", got)
	}
}

func TestExpiredOnArrivalRejected(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 8))
	n := f.note("stale", 5, time.Hour)
	f.sched.Advance(2 * time.Hour)
	f.proxy.Notify(n)
	if s := f.snapshot(t); s.Prefetch != 0 || s.History != 0 {
		t.Errorf("stale arrival entered state: %+v", s)
	}
	if f.proxy.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d", f.proxy.Stats().Rejected)
	}
}

func TestRankDropBeforeForwarding(t *testing.T) {
	cfg := OnDemandConfig("t", 8)
	cfg.RankThreshold = 3
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("a", 5, 0))
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 1})
	s := f.snapshot(t)
	if s.Prefetch != 0 || s.Outgoing != 0 {
		t.Errorf("dropped event still queued: %+v", s)
	}
	// Nothing was ever sent to the device.
	if len(f.dev.received) != 0 {
		t.Errorf("device received %v", f.dev.ids())
	}
}

func TestRankDropAfterForwardingSignalsClient(t *testing.T) {
	cfg := BufferConfig("t", 8, 10)
	cfg.RankThreshold = 3
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("a", 5, 0))
	if got := f.dev.ids(); len(got) != 1 {
		t.Fatalf("setup: %v", got)
	}
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 1})
	if len(f.dev.received) != 2 {
		t.Fatalf("device received %d messages, want rank-drop signal", len(f.dev.received))
	}
	if f.dev.received[1].ID != "a" || f.dev.received[1].Rank != 1 {
		t.Errorf("signal = %+v", f.dev.received[1])
	}
	if f.proxy.Stats().RankDropSignals != 1 {
		t.Errorf("RankDropSignals = %d", f.proxy.Stats().RankDropSignals)
	}
	// The re-forward must not inflate the proxy's view of the client
	// queue.
	if s := f.snapshot(t); s.QueueSizeView != 1 {
		t.Errorf("QueueSizeView = %d", s.QueueSizeView)
	}
}

func TestRankRaiseResurrectsFilteredEvent(t *testing.T) {
	cfg := OnDemandConfig("t", 8)
	cfg.RankThreshold = 3
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("a", 1, 0)) // filtered out
	if s := f.snapshot(t); s.Prefetch != 0 {
		t.Fatalf("filtered event queued: %+v", s)
	}
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 4})
	if s := f.snapshot(t); s.Prefetch != 1 {
		t.Errorf("boosted event not resurrected: %+v", s)
	}
}

func TestRankUpdateInQueueReorders(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 8))
	f.proxy.Notify(f.note("a", 1, 0))
	f.proxy.Notify(f.note("b", 2, 0))
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 9})
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "a" {
		t.Errorf("read sent %v, want [a] after boost", got)
	}
}

func TestRankUpdateViaRepublish(t *testing.T) {
	// A re-arrival of a known ID acts as a rank revision (Figure 7's
	// NOTIFICATION handles both).
	f := newFixture(t, OnDemandConfig("t", 8))
	f.proxy.Notify(f.note("a", 1, 0))
	f.proxy.Notify(f.note("a", 7, 0))
	if s := f.snapshot(t); s.Prefetch != 1 {
		t.Fatalf("duplicate arrival duplicated state: %+v", s)
	}
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.received; len(got) != 1 || got[0].Rank != 7 {
		t.Errorf("read sent %+v, want rank 7", got)
	}
}

func TestRankUpdateUnknownIgnored(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 8))
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "ghost", NewRank: 4})
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "ghost-topic", ID: "x", NewRank: 4})
	if s := f.snapshot(t); s.Prefetch != 0 || s.Outgoing != 0 {
		t.Errorf("unknown update created state: %+v", s)
	}
}

func TestDelayStage(t *testing.T) {
	cfg := BufferConfig("t", 8, 10)
	cfg.Delay = time.Minute
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("a", 5, 0))
	if len(f.dev.received) != 0 {
		t.Fatal("delayed event forwarded immediately")
	}
	if s := f.snapshot(t); s.Delayed != 1 {
		t.Errorf("Delayed = %d", s.Delayed)
	}
	f.sched.Advance(time.Minute)
	if got := f.dev.ids(); len(got) != 1 || got[0] != "a" {
		t.Errorf("after delay, forwarded %v", got)
	}
}

func TestDelayShieldsRankDrops(t *testing.T) {
	// The §3.4 motivation: with a delay stage, a quick retraction means
	// the event is never transferred at all.
	cfg := BufferConfig("t", 8, 10)
	cfg.Delay = time.Minute
	cfg.RankThreshold = 3
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("bad", 5, 0))
	f.sched.Advance(10 * time.Second)
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "bad", NewRank: 0})
	f.sched.Advance(time.Hour)
	if len(f.dev.received) != 0 {
		t.Errorf("retracted event still transferred: %v", f.dev.ids())
	}
}

func TestDelayedEventExpiresInLimbo(t *testing.T) {
	cfg := BufferConfig("t", 8, 10)
	cfg.Delay = time.Hour
	f := newFixture(t, cfg)
	f.proxy.Notify(f.note("a", 5, time.Minute))
	f.sched.Advance(2 * time.Hour)
	if len(f.dev.received) != 0 {
		t.Errorf("expired event escaped the delay stage: %v", f.dev.ids())
	}
	if s := f.snapshot(t); s.Delayed != 0 || s.Prefetch != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestAutoDelayLearnsFromRetractions(t *testing.T) {
	cfg := BufferConfig("t", 8, 100)
	cfg.AutoDelay = true
	cfg.RankThreshold = 3
	f := newFixture(t, cfg)
	if f.snapshot(t).Delay != 0 {
		t.Fatal("delay should start at zero")
	}
	// A retraction lands 100s after publication.
	f.proxy.Notify(f.note("a", 5, 0))
	f.sched.Advance(100 * time.Second)
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 0})
	if got := f.snapshot(t).Delay; got != 150*time.Second {
		t.Errorf("Delay = %v, want 150s (1.5x lag)", got)
	}
	// Subsequent events pass through the learned delay stage.
	f.proxy.Notify(f.note("b", 5, 0))
	if s := f.snapshot(t); s.Delayed != 1 {
		t.Errorf("Delayed = %d", s.Delayed)
	}
}

func TestRatePolicyThrottlesForwarding(t *testing.T) {
	f := newFixture(t, RateConfig("t", 1))
	// Establish rates: reads every 8 hours, arrivals hourly => ratio =
	// (1 read-size / 8h) * 1h = 0.125 => roughly 1 forward per 8
	// arrivals.
	for i := 0; i < 3; i++ {
		if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
			t.Fatal(err)
		}
		f.sched.Advance(8 * time.Hour)
	}
	f.dev.received = nil
	for i := 0; i < 32; i++ {
		f.proxy.Notify(f.note(msg.ID(fmt.Sprintf("n%02d", i)), 1, 0))
		f.sched.Advance(time.Hour)
	}
	got := len(f.dev.received)
	if got < 2 || got > 8 {
		t.Errorf("rate policy forwarded %d of 32, want roughly 4", got)
	}
}

func TestForwardFailureRequeuesAndMarksDown(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.dev.fail = true
	f.proxy.Notify(f.note("a", 5, 0))
	if !f.proxy.NetworkUp() {
		// expected: proxy marked the network down
	} else {
		t.Fatal("proxy still considers the network up after a failure")
	}
	if s := f.snapshot(t); s.Outgoing != 1 {
		t.Errorf("Outgoing = %d, want the event requeued", s.Outgoing)
	}
	f.dev.fail = false
	f.proxy.SetNetwork(true)
	if got := f.dev.ids(); len(got) != 1 || got[0] != "a" {
		t.Errorf("after recovery, forwarded %v", got)
	}
}

func TestNotifyUnknownTopicDropped(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.Notify(&msg.Notification{ID: "x", Topic: "other", Rank: 1, Published: t0})
	if len(f.dev.received) != 0 {
		t.Error("notification for unregistered topic forwarded")
	}
}

func TestHistoryGarbageCollection(t *testing.T) {
	cfg := OnDemandConfig("t", 8)
	cfg.HistoryLimit = 4
	f := newFixture(t, cfg)
	for i := 0; i < 10; i++ {
		f.proxy.Notify(f.note(msg.ID(fmt.Sprintf("n%02d", i)), 1, 0))
	}
	s := f.snapshot(t)
	if s.History != 4 {
		t.Errorf("History = %d, want 4", s.History)
	}
	// Evicted events were dropped from the queues too.
	if s.Prefetch != 4 {
		t.Errorf("Prefetch = %d, want 4", s.Prefetch)
	}
}

func TestUnlimitedRead(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 0))
	for i := 0; i < 7; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), float64(i), 0))
	}
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 0}); err != nil {
		t.Fatal(err)
	}
	if len(f.dev.received) != 7 {
		t.Errorf("unlimited read sent %d, want 7", len(f.dev.received))
	}
}

func TestReadDuringOutageDefersTransfer(t *testing.T) {
	// Prefetching policies keep Figure 7's deferral: a read selection
	// made during an outage rides the outgoing queue at reconnection.
	cfg := BufferConfig("t", 8, 1)
	f := newFixture(t, cfg)
	f.proxy.SetNetwork(false)
	f.proxy.Notify(f.note("a", 5, 0))
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	if len(f.dev.received) != 0 {
		t.Fatal("transferred during outage")
	}
	f.proxy.SetNetwork(true)
	if got := f.dev.ids(); len(got) == 0 || got[0] != "a" {
		t.Errorf("after recovery, forwarded %v", got)
	}
}

func TestOnDemandReadDuringOutageTransfersNothing(t *testing.T) {
	// Pure on-demand transfers only explicitly requested messages
	// (§3.2): a read that cannot be served now is not deferred.
	f := newFixture(t, OnDemandConfig("t", 8))
	f.proxy.Notify(f.note("a", 5, 0))
	f.proxy.SetNetwork(false)
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	f.proxy.SetNetwork(true)
	if len(f.dev.received) != 0 {
		t.Errorf("on-demand deferred a failed read: %v", f.dev.ids())
	}
	// The message is still served at the next connected read.
	if err := f.proxy.Read(msg.ReadRequest{Topic: "t", N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 1 || got[0] != "a" {
		t.Errorf("connected read forwarded %v", got)
	}
}

func TestSnapshotUnknownTopic(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	if _, ok := f.proxy.Snapshot("ghost"); ok {
		t.Error("Snapshot of unknown topic reported ok")
	}
}

func TestPolicyKindString(t *testing.T) {
	for _, tt := range []struct {
		k    PolicyKind
		want string
	}{
		{Online, "online"}, {OnDemand, "on-demand"}, {Buffer, "buffer"},
		{Rate, "rate"}, {PolicyKind(9), "policy(9)"},
	} {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []TopicConfig{
		{Name: ""},
		{Name: "t", Policy: PolicyKind(42)},
		{Name: "t", Mode: msg.DeliveryMode(42)},
		{Name: "t", RankThreshold: -1},
		{Name: "t", ReadSize: -1},
		{Name: "t", PrefetchLimit: -1},
		{Name: "t", ExpirationThreshold: -time.Second},
		{Name: "t", Delay: -time.Second},
		{Name: "t", StatsWindow: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := UnifiedConfig("t", 8)
	if err := good.Validate(); err != nil {
		t.Errorf("unified config rejected: %v", err)
	}
}

func TestPresetConstructors(t *testing.T) {
	if c := OnlineConfig("a"); c.Policy != Online {
		t.Error("OnlineConfig wrong")
	}
	if c := OnDemandConfig("a", 8); c.Policy != OnDemand || c.ReadSize != 8 {
		t.Error("OnDemandConfig wrong")
	}
	if c := BufferConfig("a", 8, 16); c.Policy != Buffer || c.PrefetchLimit != 16 {
		t.Error("BufferConfig wrong")
	}
	if c := RateConfig("a", 8); c.Policy != Rate {
		t.Error("RateConfig wrong")
	}
	c := UnifiedConfig("a", 8)
	if !c.AutoPrefetchLimit || !c.AutoExpirationThreshold || c.Policy != Buffer {
		t.Error("UnifiedConfig wrong")
	}
	if !strings.Contains(fmt.Sprint(c.Policy), "buffer") {
		t.Error("policy printing wrong")
	}
}
