package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/faultnet"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/retry"
)

// loopbackBroker serves a fresh broker on a loopback TCP listener, wrapped
// by wrap when it is given, and returns the broker and its address.
func loopbackBroker(t *testing.T, wrap func(net.Listener) net.Listener) (*pubsub.Broker, string) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := raw
	if wrap != nil {
		lis = wrap(raw)
	}
	b := pubsub.NewBroker("rpc-broker")
	bs := NewBrokerServer(b, nil)
	go func() { _ = bs.Serve(lis) }()
	t.Cleanup(bs.Close)
	return b, raw.Addr().String()
}

// TestRoundTripAllocs pins what a request/response round trip costs in
// steady state, counted across every goroutine of the process: publisher,
// broker server and both connections. A publish of one notification
// allocates the caller-owned result slice plus what the broker's decode
// keeps (the ID string); the reply channel, the per-call slices and the
// response frames are all reused.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, addr := loopbackBroker(t, nil)
	pub, err := DialBroker(addr, "allocs-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("allocs", ""); err != nil {
		t.Fatal(err)
	}

	const runs = 300
	ids := make([]msg.ID, 2*64*(runs+1))
	for i := range ids {
		ids[i] = msg.ID(fmt.Sprintf("a-%d", i))
	}
	next := 0
	publish := func(batch []*msg.Notification) {
		for _, n := range batch {
			n.ID = ids[next]
			next++
		}
		for i, err := range pub.PublishBatch(batch) {
			if err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	batch := make([]*msg.Notification, 64)
	for i := range batch {
		batch[i] = &msg.Notification{Topic: "allocs", Rank: 3, Published: time.Now()}
	}
	ping := &Frame{Type: TypePing}

	for _, tc := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"publish-1", 2, func() { publish(batch[:1]) }},
		{"publish-64", 65, func() { publish(batch) }},
		{"ping", 1, func() {
			if err := pub.call(ping); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		tc.op() // warm the pools
		if got := allocsPerRun(runs, tc.op); got > tc.budget {
			t.Errorf("%s: %v allocations per round trip, budget %v", tc.name, got, tc.budget)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off: a collection
// empties the sync.Pools under burst's pools, and refilling them would be
// counted against whatever ran next.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestPublishBatchSurvivesConnLoss cuts the broker connection while a
// pipelined batch awaits its replies, then keeps publishing. The cut batch
// must land exactly once, and no later batch may see ErrConnLost: the
// reply channel that fail() closed must never return to the waiter pool.
// Later batches alternate between the reconnected client, which would
// retry a spurious loss away, and a fail-fast one, which reports it.
func TestPublishBatchSurvivesConnLoss(t *testing.T) {
	var flis *faultnet.Listener
	broker, addr := loopbackBroker(t, func(l net.Listener) net.Listener {
		flis = faultnet.Wrap(l, faultnet.Options{Seed: 3})
		return flis
	})
	const topic = "loss"
	seen := &idCounter{n: make(map[msg.ID]int)}
	if err := broker.Subscribe(msg.Subscription{Topic: topic, Subscriber: "counter"}, seen); err != nil {
		t.Fatal(err)
	}
	pub, err := DialBrokerOpts(addr, "loss-pub", ClientOptions{
		AutoReconnect: true,
		Backoff:       retry.Policy{Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise(topic, "loss"); err != nil {
		t.Fatal(err)
	}

	var published []msg.ID
	newBatch := func(prefix string, n int) []*msg.Notification {
		batch := make([]*msg.Notification, n)
		for i := range batch {
			id := msg.ID(fmt.Sprintf("%s-%d", prefix, i))
			batch[i] = &msg.Notification{ID: id, Topic: topic, Rank: 3, Published: time.Now()}
			published = append(published, id)
		}
		return batch
	}
	checkBatch := func(what string, errs []error) {
		t.Helper()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: note %d: %v", what, i, err)
			}
		}
	}

	// Hold the broker's reads so the batch is registered and sent but not
	// answered, then cut every connection and heal.
	flis.Partition(faultnet.Inbound, time.Minute)
	cut := newBatch("cut", 64)
	done := make(chan []error, 1)
	go func() { done <- pub.PublishBatch(cut) }()
	waitFor(t, "batch in flight", func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		return len(pub.pending) == len(cut)
	})
	flis.CutAll()
	flis.Partition(faultnet.Inbound, 0)
	checkBatch("cut batch", <-done)
	if pub.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", pub.Reconnects())
	}

	strict, err := DialBroker(addr, "loss-strict")
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if err := strict.Advertise(topic, "loss"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c := pub
		if i%2 == 1 {
			c = strict
		}
		checkBatch(fmt.Sprintf("batch %d", i), c.PublishBatch(newBatch(fmt.Sprintf("after%d", i), 1+i%8)))
	}
	if pub.Reconnects() != 1 {
		t.Fatalf("reconnects = %d after the loss, want 1", pub.Reconnects())
	}
	seen.mu.Lock()
	defer seen.mu.Unlock()
	for _, id := range published {
		if got := seen.n[id]; got != 1 {
			t.Fatalf("%s delivered %d times, want once", id, got)
		}
	}
	if len(seen.n) != len(published) {
		t.Fatalf("delivered %d IDs, published %d", len(seen.n), len(published))
	}
}

// idCounter is an in-process broker subscriber counting deliveries per ID.
type idCounter struct {
	mu sync.Mutex
	n  map[msg.ID]int
}

func (c *idCounter) Deliver(n *msg.Notification) {
	c.mu.Lock()
	c.n[n.ID]++
	c.mu.Unlock()
	burst.Notes.Put(n)
}

func (c *idCounter) DeliverRankUpdate(msg.RankUpdate) {}

// TestRepeatedReplyIsDropped serves the client from a fake broker that
// answers one publish twice, the second time just before it answers the
// next batch. The client has recycled the first batch's reply channel by
// then; the stray must be dropped rather than resolve a request of the
// batch now waiting on that channel, which must still resolve
// positionally.
func TestRepeatedReplyIsDropped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The fake broker's last reply may still sit on its egress ring when
	// the client reads it; the test returns only once the fake has closed
	// its connection, which releases that pooled buffer, so no later
	// test's pool baseline counts it.
	fakeDone := make(chan struct{})
	go func() {
		defer close(fakeDone)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		conn.SetRecvReuse(true)
		var twice uint64
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			resp := &Frame{Type: TypeOK, Re: f.Seq}
			if f.Notification != nil {
				switch id := string(f.Notification.ID); {
				case id == "twice":
					twice = f.Seq
				case id == "bad-0": // the second batch's first frame
					_ = conn.Send(&Frame{Type: TypeOK, Re: twice})
					fallthrough
				case strings.HasPrefix(id, "bad"):
					resp = &Frame{Type: TypeErr, Re: f.Seq, Message: "refused " + id}
				}
			}
			_ = conn.Send(resp)
		}
	}()

	pub, err := DialBroker(lis.Addr().String(), "twice-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = pub.Close()
		<-fakeDone
	}()
	notes := func(ids ...string) []*msg.Notification {
		out := make([]*msg.Notification, len(ids))
		for i, id := range ids {
			out[i] = &msg.Notification{ID: msg.ID(id), Topic: "t", Rank: 3}
		}
		return out
	}
	// Both batches hold six frames, so the second reuses the first's
	// channel.
	for i, err := range pub.PublishBatch(notes("a", "twice", "b", "c", "d", "e")) {
		if err != nil {
			t.Fatalf("first batch %d: %v", i, err)
		}
	}
	ids := []string{"bad-0", "f", "bad-1", "g", "h", "bad-2"}
	for i, err := range pub.PublishBatch(notes(ids...)) {
		var re *RemoteError
		switch bad := strings.HasPrefix(ids[i], "bad"); {
		case bad && !(errors.As(err, &re) && re.Message == "refused "+ids[i]):
			t.Errorf("%s: %v, want its own refusal", ids[i], err)
		case !bad && err != nil:
			t.Errorf("%s: %v, want nil", ids[i], err)
		}
	}
	if err := pub.call(&Frame{Type: TypePing}); err != nil {
		t.Fatalf("ping after the stray: %v", err)
	}
}
