package host

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/faultnet"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/wire"
)

// checkTopicLists asserts that each topic's session list holds exactly the
// sessions subscribed to the topic, each once, and that no topic is left
// with an empty list.
func checkTopicLists(t *testing.T, h *Host, step string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	want := make(map[string][]string)
	for name, s := range h.sessions {
		s.mu.Lock()
		for topic := range s.topics {
			want[topic] = append(want[topic], name)
		}
		s.mu.Unlock()
	}
	got := make(map[string][]string)
	for topic, ts := range h.topics {
		names := []string{}
		for _, s := range ts.sessions {
			names = append(names, s.name)
		}
		got[topic] = names
	}
	for _, m := range []map[string][]string{want, got} {
		for _, names := range m {
			slices.Sort(names)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: topic session lists %v, subscribed sessions %v", step, got, want)
	}
}

// addSession registers a device-less session in the host's directory.
func addSession(h *Host, name string) *Session {
	s := newSession(h, name, h.workerFor(name))
	h.mu.Lock()
	h.sessions[name] = s
	h.mu.Unlock()
	return s
}

func subscribeFrame(topic string, pol wire.TopicPolicy) *wire.Frame {
	return &wire.Frame{Type: wire.TypeSubscribe, Topic: topic, TopicPolicy: &pol}
}

// TestTopicListsFollowMembership walks every path that edits a topic's
// session list — subscribe, unsubscribe, the rollback of a subscribe whose
// upstream half failed, and spool recovery — and checks after each that
// the lists match what the sessions hold.
func TestTopicListsFollowMembership(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flis := faultnet.Wrap(raw, faultnet.Options{Seed: 5})
	bs := wire.NewBrokerServer(pubsub.NewBroker("members-broker"), nil)
	go func() { _ = bs.Serve(flis) }()
	defer bs.Close()
	h, err := New(Options{BrokerAddr: raw.Addr().String(), Name: "members-host", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pol := wire.TopicPolicy{Mode: "on-line"}
	sessions := make([]*Session, 4)
	for i := range sessions {
		sessions[i] = addSession(h, fmt.Sprintf("member-%d", i))
		for k := 0; k <= i%3; k++ {
			if err := h.subscribe(sessions[i], subscribeFrame(fmt.Sprintf("m/%d", k), pol)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Re-subscribing is idempotent.
	if err := h.subscribe(sessions[0], subscribeFrame("m/0", pol)); err != nil {
		t.Fatal(err)
	}
	checkTopicLists(t, h, "subscribe")
	if got := h.TopicRefs("m/0"); got != 4 {
		t.Fatalf("TopicRefs(m/0) = %d, want 4", got)
	}

	for _, s := range sessions[1:3] {
		if err := h.unsubscribe(s, "m/1"); err != nil {
			t.Fatal(err)
		}
	}
	checkTopicLists(t, h, "unsubscribe")
	if got := h.TopicRefs("m/2"); got != 1 {
		t.Fatalf("TopicRefs(m/2) = %d, want 1", got)
	}

	// With the upstream connection gone, every new subscription fails
	// upstream and rolls back: the first subscriber's and the ones that
	// piggybacked on its attempt.
	flis.CutAll()
	waitFor(t, "upstream lost", func() bool {
		return h.subscribe(sessions[0], subscribeFrame("m/probe", pol)) != nil
	})
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.subscribe(s, subscribeFrame("m/fail", pol)); err == nil {
				t.Errorf("%s subscribed without an upstream", s.name)
			}
		}()
	}
	wg.Wait()
	checkTopicLists(t, h, "rollback")
	if got := h.TopicRefs("m/fail"); got != 0 {
		t.Fatalf("TopicRefs(m/fail) = %d after rollback, want 0", got)
	}
}

// TestTopicListsAfterRecovery checks the lists a restarted host rebuilds
// from its spool.
func TestTopicListsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	pol := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}
	for i := 0; i < 5; i++ {
		dev := tt.device(fmt.Sprintf("rec-%d", i))
		for k := 0; k <= i%3; k++ {
			if err := dev.Subscribe(fmt.Sprintf("r/%d", k), pol); err != nil {
				t.Fatal(err)
			}
		}
		if i == 4 {
			if err := dev.Unsubscribe("r/0"); err != nil {
				t.Fatal(err)
			}
		}
		_ = dev.Close()
	}
	checkTopicLists(t, tt.host, "before the crash")
	waitFor(t, "all sessions hibernated", func() bool {
		return tt.host.Lifecycle().Hibernated == 5
	})
	tt.host.Kill()

	opts := hibOpts(dir)
	opts.BrokerAddr = tt.brokerAddr
	opts.Name = "test-host"
	h2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	checkTopicLists(t, h2, "recovery")
	if got := h2.TopicRefs("r/0"); got != 4 {
		t.Fatalf("TopicRefs(r/0) after recovery = %d, want 4", got)
	}
}

// TestDispatchDuringChurn pushes to two topics while sessions subscribe to
// and unsubscribe from them. Every pooled notification must come back once
// the last session leaves, and the lists must end matching membership.
func TestDispatchDuringChurn(t *testing.T) {
	notesBase := burst.Notes.Outstanding()
	tt := newTopology(t, Options{Workers: 2})
	h := tt.host
	pol := wire.TopicPolicy{Mode: "on-line", HistoryLimit: 16}
	topics := []string{"churn/a", "churn/b"}
	stable := addSession(h, "churn-stable")
	for _, topic := range topics {
		if err := h.subscribe(stable, subscribeFrame(topic, pol)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var pushes sync.WaitGroup
	pushed := 0
	pushes.Add(1)
	go func() {
		defer pushes.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				pushed = i
				return
			default:
			}
			n := burst.Notes.Get()
			n.ID = msg.ID(fmt.Sprintf("churn-%d", i))
			n.Topic = topics[i%2]
			n.Rank = 3
			n.Published = time.Now()
			h.dispatchPush(n)
			if i%16 == 0 {
				h.dispatchRank(msg.RankUpdate{ID: n.ID, Topic: n.Topic, NewRank: 4})
			}
		}
	}()
	var churn sync.WaitGroup
	for c := 0; c < 4; c++ {
		s := addSession(h, fmt.Sprintf("churn-%d", c))
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 200; i++ {
				topic := topics[(c+i)%2]
				if err := h.subscribe(s, subscribeFrame(topic, pol)); err != nil {
					t.Errorf("%s: subscribe %s: %v", s.name, topic, err)
					return
				}
				if err := h.unsubscribe(s, topic); err != nil {
					t.Errorf("%s: unsubscribe %s: %v", s.name, topic, err)
					return
				}
			}
		}()
	}
	churn.Wait()
	close(stop)
	pushes.Wait()
	if pushed == 0 {
		t.Fatal("no push overlapped the churn")
	}
	checkTopicLists(t, h, "after churn")

	for _, topic := range topics {
		if err := h.unsubscribe(stable, topic); err != nil {
			t.Fatal(err)
		}
	}
	checkTopicLists(t, h, "all unsubscribed")
	waitFor(t, "pooled notes back", func() bool { return burst.Notes.Outstanding() == notesBase })
}

// allocsPerRun is testing.AllocsPerRun with the collector off: a collection
// empties the sync.Pools under burst's pools, and refilling them would be
// counted against whatever ran next.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// attachDiscarding connects a session to a loopback connection whose far
// end reads and drops every byte: a push then costs what the host spends
// on a live device and nothing that a device would spend.
func attachDiscarding(t *testing.T, s *Session) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
		_, _ = io.Copy(io.Discard, c)
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	conn := wire.NewConn(c)
	t.Cleanup(func() { _ = conn.Close(); _ = far.Close() })
	s.attach(conn, &wire.Frame{Type: wire.TypeHello})
}

// TestDispatchPushAllocs pins what one upstream push costs the host in
// steady state, counted across every goroutine of the process, on a topic
// with one on-line session and with 32. One session costs nothing beyond
// the notification; 32 cost the broadcast's share group and member list.
func TestDispatchPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tt := newTopology(t, Options{Workers: 2})
	h := tt.host
	pol := wire.TopicPolicy{Mode: "on-line", Policy: "online", HistoryLimit: 64}
	const runs = 500
	ids := make([]msg.ID, 2*2*(runs+1)) // two cases, two AllocsPerRun each
	for i := range ids {
		ids[i] = msg.ID(fmt.Sprintf("push-%d", i))
	}
	next := 0
	published := time.Now()
	for _, tc := range []struct {
		sessions int
		budget   float64
	}{{1, 0}, {32, 2}} {
		topic := fmt.Sprintf("allocs/%d", tc.sessions)
		for i := 0; i < tc.sessions; i++ {
			s := addSession(h, fmt.Sprintf("%s-%d", topic, i))
			attachDiscarding(t, s)
			if err := h.subscribe(s, subscribeFrame(topic, pol)); err != nil {
				t.Fatal(err)
			}
		}
		push := func() {
			n := burst.Notes.Get()
			n.ID, n.Topic, n.Rank, n.Published = ids[next], topic, 3, published
			next++
			h.dispatchPush(n)
		}
		allocsPerRun(runs, push) // fill the histories and the pools
		if got := allocsPerRun(runs, push); got > tc.budget {
			t.Errorf("%d sessions: %v allocations per push, budget %v", tc.sessions, got, tc.budget)
		}
	}
}
