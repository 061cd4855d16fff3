// Package pubsub implements the topic-based publish/subscribe routing
// substrate that the paper treats as a black box: advertising and
// withdrawing topics, publishing notifications, subscribing and
// unsubscribing, and propagating rank updates. Notifications and
// subscription notices carry the volume-limiting attribute pairs
// (Rank/Expiration and Max/Threshold) end to end.
//
// A Broker is a single routing node. Routing state is striped across
// shards keyed by topic hash, so publishes on unrelated topics never
// contend on a common lock, and each topic keeps a copy-on-write
// subscriber slice so publish fan-out walks a stable snapshot without
// holding any lock.
package pubsub

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/trace"
)

// Well-known errors callers can match with errors.Is.
var (
	ErrNotAdvertised     = errors.New("topic not advertised")
	ErrAlreadyAdvertised = errors.New("topic already advertised")
	ErrNotSubscribed     = errors.New("not subscribed")
	ErrDuplicateID       = errors.New("duplicate notification ID")
)

// Subscriber receives notifications and rank updates for its subscriptions.
// Implementations must not call back into the broker from inside the
// callback; the proxy's handlers satisfy this by scheduling follow-up work.
// Implementations that additionally satisfy SharedDeliverer opt into the
// encode-once fan-out path and receive DeliverShared instead of Deliver.
type Subscriber interface {
	// Deliver hands over a notification on a subscribed topic. The
	// notification is the subscriber's to keep: it is an isolated clone
	// checked out of burst.Notes, and the subscriber must release it with
	// burst.Notes.Put exactly once when nothing references it anymore
	// (retaining it forever merely leaks one pooled object).
	Deliver(n *msg.Notification)
	// DeliverRankUpdate hands over a rank revision for a notification
	// previously published on a subscribed topic.
	DeliverRankUpdate(u msg.RankUpdate)
}

type subscription struct {
	name string
	sub  Subscriber
	opts msg.SubscriptionOptions
}

type topicState struct {
	publisher string
	subs      map[string]*subscription
	seen      *seenSet // IDs published on this topic (duplicate suppression)

	// subsList is a copy-on-write snapshot of subs sorted by subscriber
	// name, rebuilt whenever the map changes. Fan-out grabs it under the
	// shard lock and walks it after releasing it; the slice itself is
	// never mutated in place.
	subsList []*subscription
}

// refreshSubs rebuilds the copy-on-write subscriber snapshot. The caller
// holds the owning shard's lock.
func (st *topicState) refreshSubs() {
	list := make([]*subscription, 0, len(st.subs))
	for _, s := range st.subs {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	st.subsList = list
}

// shardCount stripes topic state; must be a power of two. 128 stripes keeps
// the chance of two concurrent publishes colliding on a stripe low even with
// dozens of publisher goroutines, at a cost of a few KB per broker.
const shardCount = 128

type shard struct {
	mu     sync.Mutex
	topics map[string]*topicState

	// publishes counts accepted publishes on this stripe (an atomic,
	// incremented outside the lock; RegisterMetrics exports it per shard).
	publishes atomic.Int64
}

// topic returns the shard's state for a topic, creating it if absent. The
// caller holds sh.mu.
func (sh *shard) topic(name string) *topicState {
	st, ok := sh.topics[name]
	if !ok {
		st = &topicState{
			subs: make(map[string]*subscription),
			seen: newSeenSet(),
		}
		sh.topics[name] = st
	}
	return st
}

// topicHashSeed is shared by every broker so equal topics hash alike in
// every process lifetime (the mapping only needs to be stable in-process).
var topicHashSeed = maphash.MakeSeed()

// Broker is one topic-based pub/sub routing node. All methods are safe for
// concurrent use.
type Broker struct {
	name   string
	shards [shardCount]shard

	// Always-on lightweight instrumentation; RegisterMetrics exports it.
	duplicates atomic.Int64
	fanoutHist atomic.Pointer[obs.Histogram]

	// tracer, when set, makes this broker a trace origin: accepted
	// publishes are head-sampled and minted a context, and routing events
	// are recorded against sampled notifications. Nil (the default) keeps
	// the publish path free of tracing work beyond one atomic load.
	tracer atomic.Pointer[trace.Collector]
}

// NewBroker returns an empty broker with the given node name.
func NewBroker(name string) *Broker {
	b := &Broker{name: name}
	for i := range b.shards {
		b.shards[i].topics = make(map[string]*topicState)
	}
	return b
}

// Name returns the broker's node name.
func (b *Broker) Name() string { return b.name }

// SetTracer installs (or, with nil, removes) the trace collector that makes
// this broker a distributed-trace origin. Safe to call concurrently with
// publishes.
func (b *Broker) SetTracer(c *trace.Collector) { b.tracer.Store(c) }

// shard selects the lock stripe owning a topic.
func (b *Broker) shard(topic string) *shard {
	h := maphash.String(topicHashSeed, topic)
	return &b.shards[h&(shardCount-1)]
}

// Advertise announces that publisher will publish on the topic. A topic
// may have one publisher at a time; re-advertising by the same publisher is
// idempotent.
func (b *Broker) Advertise(topic, publisher string) error {
	if topic == "" || publisher == "" {
		return errors.New("advertise needs a topic and a publisher")
	}
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.topic(topic)
	if st.publisher != "" && st.publisher != publisher {
		return fmt.Errorf("%w: topic %q held by %q", ErrAlreadyAdvertised, topic, st.publisher)
	}
	st.publisher = publisher
	return nil
}

// Withdraw removes the publisher's claim on the topic. Existing
// subscriptions stay; they simply stop receiving events.
func (b *Broker) Withdraw(topic, publisher string) error {
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.topics[topic]
	if !ok || st.publisher != publisher {
		return fmt.Errorf("%w: %q", ErrNotAdvertised, topic)
	}
	st.publisher = ""
	return nil
}

// Subscribe registers a subscriber on a topic with its volume-limiting
// options. Re-subscribing with the same subscriber name replaces the
// options (used by context updates, §2.3).
func (b *Broker) Subscribe(s msg.Subscription, sub Subscriber) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	if sub == nil {
		return errors.New("subscribe: nil subscriber")
	}
	sh := b.shard(s.Topic)
	sh.mu.Lock()
	st := sh.topic(s.Topic)
	st.subs[s.Subscriber] = &subscription{name: s.Subscriber, sub: sub, opts: s.Options}
	st.refreshSubs()
	sh.mu.Unlock()
	return nil
}

// Unsubscribe removes the subscriber from the topic.
func (b *Broker) Unsubscribe(topic, subscriber string) error {
	sh := b.shard(topic)
	sh.mu.Lock()
	st, ok := sh.topics[topic]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotSubscribed, topic)
	}
	if _, ok := st.subs[subscriber]; !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q on %q", ErrNotSubscribed, subscriber, topic)
	}
	delete(st.subs, subscriber)
	st.refreshSubs()
	sh.mu.Unlock()
	return nil
}

// Unbind removes the subscriber from the topic only while its binding
// still delivers to sub. The check and the removal share one critical
// section, so a connection's cleanup never removes the binding a newer
// connection re-subscribed under the same name. sub must be comparable.
func (b *Broker) Unbind(topic, subscriber string, sub Subscriber) {
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.topics[topic]
	if !ok {
		return
	}
	if s, ok := st.subs[subscriber]; ok && s.sub == sub {
		delete(st.subs, subscriber)
		st.refreshSubs()
	}
}

// Publish routes a notification to every subscriber of its topic. The
// topic must be advertised; notification IDs must be fresh. The admission checks and the
// duplicate-suppression record share one locked pass over the topic's
// shard, so the ingress hot path takes exactly one lock round trip.
func (b *Broker) Publish(n *msg.Notification) error {
	if n == nil {
		return errors.New("publish: nil notification")
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	sh := b.shard(n.Topic)
	sh.mu.Lock()
	st, ok := sh.topics[n.Topic]
	if !ok || st.publisher == "" {
		sh.mu.Unlock()
		return fmt.Errorf("publish: %w: %q", ErrNotAdvertised, n.Topic)
	}
	if n.Publisher != "" && n.Publisher != st.publisher {
		sh.mu.Unlock()
		return fmt.Errorf("publish: topic %q advertised by %q, not %q", n.Topic, st.publisher, n.Publisher)
	}
	if !st.seen.Add(n.ID) {
		sh.mu.Unlock()
		b.duplicates.Add(1)
		if c := b.tracer.Load(); c != nil {
			// Anomaly: always traced, even when the original publish was
			// not head-sampled.
			c.Record(trace.Event{
				At: time.Now(), Kind: trace.KindDuplicate, Topic: n.Topic,
				ID: n.ID, Rank: n.Rank, Node: b.name,
				Cause: "duplicate notification ID rejected at ingress",
			})
		}
		return fmt.Errorf("publish: %w: %q", ErrDuplicateID, n.ID)
	}
	subs := st.subsList
	sh.mu.Unlock()
	sh.publishes.Add(1)

	if c := b.tracer.Load(); c != nil {
		c.PublishAccepted(n, b.name, time.Now())
	}
	b.fanOut(n, subs)
	return nil
}

// fanOut walks a copy-on-write subscriber snapshot with no lock held.
// Each subscriber owns what it receives: an isolated pooled clone, or the
// caller-owned original plus a fan-out-scoped shared encoding.
func (b *Broker) fanOut(n *msg.Notification, subs []*subscription) {
	// The route event is recorded before the deliveries it describes so
	// that timelines stay causally ordered.
	if n.Trace != nil {
		if tracer := b.tracer.Load(); tracer != nil {
			tracer.Record(trace.Event{
				At: time.Now(), Kind: trace.KindRoute, Topic: n.Topic, ID: n.ID,
				Rank: n.Rank, TraceID: n.Trace.TraceID, Node: b.name,
				Count: len(subs),
			})
		}
	}
	// Shared-capable subscribers (wire connections) receive the
	// caller-owned original plus a fan-out-scoped SharedEncoding: the
	// push frame is encoded once per notification and the same
	// ref-counted buffer rides every egress ring. Everything else gets
	// the classic isolated pooled clone (payload bytes copied into the
	// clone's retained buffer, zero steady-state allocations), ownership
	// transferring with Deliver.
	var enc *SharedEncoding
	for _, s := range subs {
		if sd, ok := s.sub.(SharedDeliverer); ok {
			if enc == nil {
				enc = getSharedEncoding()
			}
			sd.DeliverShared(n, enc)
			continue
		}
		s.sub.Deliver(burst.Notes.CloneInto(n))
	}
	if enc != nil {
		putSharedEncoding(enc)
	}
	if h := b.fanoutHist.Load(); h != nil {
		h.Observe(float64(len(subs)))
	}
}

// PublishRankUpdate routes a rank revision for a previously published
// notification to everyone subscribed to its topic.
func (b *Broker) PublishRankUpdate(u msg.RankUpdate) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("rank update: %w", err)
	}
	sh := b.shard(u.Topic)
	sh.mu.Lock()
	st, ok := sh.topics[u.Topic]
	if !ok || !st.seen.Contains(u.ID) {
		sh.mu.Unlock()
		return fmt.Errorf("rank update: unknown notification %q on %q", u.ID, u.Topic)
	}
	subs := st.subsList
	sh.mu.Unlock()
	for _, s := range subs {
		s.sub.DeliverRankUpdate(u)
	}
	return nil
}

// Topics returns the names of all topics with local state, sorted.
func (b *Broker) Topics() []string {
	var out []string
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for name := range sh.topics {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Subscribers returns the names of local subscribers on a topic, sorted.
func (b *Broker) Subscribers(topic string) []string {
	sh := b.shard(topic)
	sh.mu.Lock()
	st, ok := sh.topics[topic]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	subs := st.subsList
	sh.mu.Unlock()
	out := make([]string, 0, len(subs))
	for _, s := range subs {
		out = append(out, s.name)
	}
	return out
}

// SubscriptionOptions returns the options a local subscriber registered.
func (b *Broker) SubscriptionOptions(topic, subscriber string) (msg.SubscriptionOptions, bool) {
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.topics[topic]
	if !ok {
		return msg.SubscriptionOptions{}, false
	}
	s, ok := st.subs[subscriber]
	if !ok {
		return msg.SubscriptionOptions{}, false
	}
	return s.opts, true
}
