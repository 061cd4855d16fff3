package pubsub

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"lasthop/internal/msg"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// recorder is a test Subscriber that remembers everything delivered.
type recorder struct {
	mu      sync.Mutex
	notes   []*msg.Notification
	updates []msg.RankUpdate
}

var _ Subscriber = (*recorder)(nil)

func (r *recorder) Deliver(n *msg.Notification) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, n)
}

func (r *recorder) DeliverRankUpdate(u msg.RankUpdate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates = append(r.updates, u)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.notes)
}

func note(id msg.ID, topic string, rank float64) *msg.Notification {
	return &msg.Notification{ID: id, Topic: topic, Publisher: "pub", Rank: rank, Published: t0}
}

func sub(topic, name string) msg.Subscription {
	return msg.Subscription{Topic: topic, Subscriber: name, Options: msg.SubscriptionOptions{Max: 8}}
}

func TestAdvertisePublishSubscribe(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	if err := b.Subscribe(sub("news", "dev"), r); err != nil {
		t.Fatal(err)
	}
	// Publishing before advertising fails.
	if err := b.Publish(note("n1", "news", 3)); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("publish before advertise: %v", err)
	}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(note("n1", "news", 3)); err != nil {
		t.Fatal(err)
	}
	if r.count() != 1 || r.notes[0].ID != "n1" {
		t.Fatalf("delivered = %v", r.notes)
	}
	// Duplicate ID rejected.
	if err := b.Publish(note("n1", "news", 4)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate publish: %v", err)
	}
}

func TestAdvertiseConflicts(t *testing.T) {
	b := NewBroker("b1")
	if err := b.Advertise("news", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.Advertise("news", "alice"); err != nil {
		t.Errorf("re-advertise by owner: %v", err)
	}
	if err := b.Advertise("news", "bob"); !errors.Is(err, ErrAlreadyAdvertised) {
		t.Errorf("advertise by other: %v", err)
	}
	if err := b.Advertise("", "alice"); err == nil {
		t.Error("empty topic accepted")
	}
	if err := b.Withdraw("news", "bob"); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("withdraw by other: %v", err)
	}
	if err := b.Withdraw("news", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.Advertise("news", "bob"); err != nil {
		t.Errorf("advertise after withdraw: %v", err)
	}
}

func TestPublishByWrongPublisher(t *testing.T) {
	b := NewBroker("b1")
	if err := b.Advertise("news", "alice"); err != nil {
		t.Fatal(err)
	}
	n := note("n1", "news", 3)
	n.Publisher = "mallory"
	if err := b.Publish(n); err == nil {
		t.Error("publish by non-owner accepted")
	}
	n2 := note("n2", "news", 3)
	n2.Publisher = "" // anonymous publish through the owning channel is fine
	if err := b.Publish(n2); err != nil {
		t.Errorf("anonymous publish rejected: %v", err)
	}
}

func TestPublishValidation(t *testing.T) {
	b := NewBroker("b1")
	if err := b.Publish(nil); err == nil {
		t.Error("nil notification accepted")
	}
	bad := note("", "news", 3)
	if err := b.Publish(bad); err == nil {
		t.Error("invalid notification accepted")
	}
}

// TestPublishRefusesNaNRank: a NaN rank fails every comparison, so a range
// check written as two comparisons lets it through to the subscribers' rank
// heaps, where it has no place in the order. Neither a publish nor a
// revision may carry one.
func TestPublishRefusesNaNRank(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "dev"), r); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(note("nan", "news", math.NaN())); err == nil {
		t.Error("NaN-ranked notification accepted")
	}
	if err := b.Publish(note("n1", "news", 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "n1", NewRank: math.NaN()}); err == nil {
		t.Error("NaN rank update accepted")
	}
	if r.count() != 1 || len(r.updates) != 0 {
		t.Errorf("subscriber saw %d notifications and %d updates, want 1 and 0", r.count(), len(r.updates))
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "dev"), r); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(note("n1", "news", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("news", "dev"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(note("n2", "news", 1)); err != nil {
		t.Fatal(err)
	}
	if r.count() != 1 {
		t.Errorf("delivered %d, want 1", r.count())
	}
	if err := b.Unsubscribe("news", "dev"); !errors.Is(err, ErrNotSubscribed) {
		t.Errorf("double unsubscribe: %v", err)
	}
	if err := b.Unsubscribe("ghost", "dev"); !errors.Is(err, ErrNotSubscribed) {
		t.Errorf("unsubscribe unknown topic: %v", err)
	}
}

func TestResubscribeReplacesOptions(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	s := sub("traffic/oslo", "dev")
	if err := b.Subscribe(s, r); err != nil {
		t.Fatal(err)
	}
	s.Options.Max = 99
	if err := b.Subscribe(s, r); err != nil {
		t.Fatal(err)
	}
	opts, ok := b.SubscriptionOptions("traffic/oslo", "dev")
	if !ok || opts.Max != 99 {
		t.Errorf("options = %+v, %v", opts, ok)
	}
	if len(b.Subscribers("traffic/oslo")) != 1 {
		t.Error("resubscribe duplicated the subscriber")
	}
}

func TestDeliveryIsolation(t *testing.T) {
	// Subscribers must not be able to corrupt each other's notification.
	b := NewBroker("b1")
	r1, r2 := &recorder{}, &recorder{}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "a"), r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "b"), r2); err != nil {
		t.Fatal(err)
	}
	orig := note("n1", "news", 3)
	orig.Payload = []byte("x")
	if err := b.Publish(orig); err != nil {
		t.Fatal(err)
	}
	r1.notes[0].Payload[0] = 'y'
	r1.notes[0].Rank = 0
	if r2.notes[0].Payload[0] != 'x' || r2.notes[0].Rank != 3 {
		t.Error("subscribers share notification storage")
	}
}

func TestRankUpdateRouting(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "dev"), r); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "nX", NewRank: 1}); err == nil {
		t.Error("update for unpublished notification accepted")
	}
	if err := b.Publish(note("n1", "news", 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "n1", NewRank: 1}); err != nil {
		t.Fatal(err)
	}
	if len(r.updates) != 1 || r.updates[0].NewRank != 1 {
		t.Errorf("updates = %v", r.updates)
	}
	if err := b.PublishRankUpdate(msg.RankUpdate{Topic: "news", ID: "n1", NewRank: -2}); err == nil {
		t.Error("invalid update accepted")
	}
}

func TestTopicsAndSubscribers(t *testing.T) {
	b := NewBroker("b1")
	if err := b.Subscribe(sub("b-topic", "z"), &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("a-topic", "y"), &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("a-topic", "x"), &recorder{}); err != nil {
		t.Fatal(err)
	}
	topics := b.Topics()
	if len(topics) != 2 || topics[0] != "a-topic" || topics[1] != "b-topic" {
		t.Errorf("Topics = %v", topics)
	}
	subs := b.Subscribers("a-topic")
	if len(subs) != 2 || subs[0] != "x" || subs[1] != "y" {
		t.Errorf("Subscribers = %v", subs)
	}
	if b.Subscribers("ghost") != nil {
		t.Error("Subscribers of unknown topic != nil")
	}
	if _, ok := b.SubscriptionOptions("ghost", "x"); ok {
		t.Error("options for unknown topic reported ok")
	}
	if _, ok := b.SubscriptionOptions("a-topic", "ghost"); ok {
		t.Error("options for unknown subscriber reported ok")
	}
}

func TestConcurrentPublish(t *testing.T) {
	b := NewBroker("b1")
	r := &recorder{}
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(sub("news", "dev"), r); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := msg.ID(fmt.Sprintf("w%d-%d", w, i))
				if err := b.Publish(note(id, "news", 1)); err != nil {
					t.Errorf("publish %s: %v", id, err)
				}
			}
		}()
	}
	wg.Wait()
	if r.count() != workers*per {
		t.Errorf("delivered %d, want %d", r.count(), workers*per)
	}
}
