package host

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/spool"
	"lasthop/internal/wire"
)

// hibOpts is the fast-cycling hibernation config the lifecycle tests use:
// sessions hibernate 50ms after a disconnect and group commits run every
// 10ms. Fsync is off — the tests simulate process death (Kill), which the
// page cache survives, not machine death.
func hibOpts(dir string) Options {
	return Options{
		Workers:          2,
		SpoolDir:         dir,
		HibernateAfter:   50 * time.Millisecond,
		SpoolCommitEvery: 10 * time.Millisecond,
		SpoolFsync:       spool.FsyncNever,
	}
}

func sessionInfoOf(h *Host, name string) (SessionInfo, bool) {
	for _, s := range h.Sessions() {
		if s.Name == name {
			return s, true
		}
	}
	return SessionInfo{}, false
}

// countSpoolRecords scans every worker spool under dir and counts records
// of one kind. Safe to call while the host is writing: a mid-append tail
// parses as torn and is skipped, so the count is momentarily low, never
// wrong — callers poll it upward.
func countSpoolRecords(t *testing.T, dir string, kind spool.Kind) int {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "worker-*"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range dirs {
		err := spool.ScanDir(d, 0, func(string, ...any) {}, func(_ spool.Loc, r spool.Record) error {
			if r.Kind == kind {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", d, err)
		}
	}
	return n
}

func publishSeq(t *testing.T, pub *wire.BrokerClient, topic, prefix string, from, to int) {
	t.Helper()
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatalf("advertise %s: %v", topic, err)
	}
	for i := from; i < to; i++ {
		n := &msg.Notification{
			ID: msg.ID(fmt.Sprintf("%s-%d", prefix, i)), Topic: topic,
			Rank: float64(1 + i), Published: time.Now(),
		}
		if err := pub.Publish(n); err != nil {
			t.Fatalf("publish %s-%d: %v", prefix, i, err)
		}
	}
}

// readAll drains the topic until the device has seen every wanted ID
// (duplicates tolerated — resume semantics are at-least-once) or the
// deadline passes.
func readAll(t *testing.T, dev *wire.DeviceClient, topic string, want []string) {
	t.Helper()
	got := make(map[string]bool)
	deadline := time.Now().Add(10 * time.Second)
	for {
		missing := 0
		for _, id := range want {
			if !got[id] {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still missing %d of %v, have %v", missing, want, got)
		}
		batch, err := dev.Read(topic, 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, n := range batch {
			got[string(n.ID)] = true
		}
		if len(batch) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSessionHibernatesAndRehydrates is the lifecycle round trip: a
// disconnected session's queues move to the spool, its memory is dropped,
// arrivals while hibernated land as deltas, and the reconnect rebuilds the
// proxy with nothing missing.
func TestSessionHibernatesAndRehydrates(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	const topic = "hib/t"
	dev := tt.device("hib-dev")
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("hib-pub")
	publishSeq(t, pub, topic, "h", 0, 3)
	waitFor(t, "3 notifications resident", func() bool {
		st, ok := tt.host.SessionStats("hib-dev")
		return ok && st.Notifications >= 3
	})

	_ = dev.Close()
	waitFor(t, "session hibernated", func() bool {
		info, ok := sessionInfoOf(tt.host, "hib-dev")
		return ok && info.State == "hibernated"
	})
	ls := tt.host.Lifecycle()
	if ls.Hibernations != 1 || ls.Hibernated != 1 || ls.Resident != 0 {
		t.Fatalf("lifecycle after hibernate = %+v", ls)
	}
	if _, ok := tt.host.SessionStats("hib-dev"); ok {
		t.Fatal("SessionStats reported a hibernated session (would imply a resident proxy)")
	}

	// Arrivals while hibernated append deltas, no proxy involved.
	publishSeq(t, pub, topic, "h", 3, 5)
	waitFor(t, "2 deltas spooled", func() bool {
		return countSpoolRecords(t, dir, spool.KindDelta) >= 2
	})
	if got := tt.host.Lifecycle().Rehydrations; got != 0 {
		t.Fatalf("deltas forced %d rehydrations", got)
	}

	// Reconnect: hello rehydrates, the reasserted subscribe is a no-op,
	// and the read returns snapshot and delta content alike.
	dev2 := tt.device("hib-dev")
	if err := dev2.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session resident again", func() bool {
		info, ok := sessionInfoOf(tt.host, "hib-dev")
		return ok && info.State == "resident" && info.Connected
	})
	if got := tt.host.Lifecycle().Rehydrations; got != 1 {
		t.Fatalf("rehydrations = %d, want 1", got)
	}
	st, ok := tt.host.SessionStats("hib-dev")
	if !ok || st.Notifications < 5 {
		t.Fatalf("stats after rehydrate = %+v ok=%v, want ≥5 notifications", st, ok)
	}
	readAll(t, dev2, topic, []string{"h-0", "h-1", "h-2", "h-3", "h-4"})
}

// TestHelloDuringHibernateRace pins the snapshot-appended-but-uncommitted
// window: the commit interval is an hour, so a session that disconnects
// sits in "hibernating" indefinitely — snapshot on disk, memory intact.
// A hello in that window must flip it straight back to resident without a
// rehydration, and the eventual commit callback must see the reversal and
// not drop the live proxy.
func TestHelloDuringHibernateRace(t *testing.T) {
	dir := t.TempDir()
	opts := hibOpts(dir)
	opts.SpoolCommitEvery = time.Hour
	tt := newTopology(t, opts)
	const topic = "race/t"
	dev := tt.device("race-dev")
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("race-pub")
	publishSeq(t, pub, topic, "r", 0, 2)
	waitFor(t, "2 notifications resident", func() bool {
		st, ok := tt.host.SessionStats("race-dev")
		return ok && st.Notifications >= 2
	})

	_ = dev.Close()
	waitFor(t, "session hibernating (snapshot uncommitted)", func() bool {
		info, ok := sessionInfoOf(tt.host, "race-dev")
		return ok && info.State == "hibernating"
	})
	if n := countSpoolRecords(t, dir, spool.KindSnapshot); n != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", n)
	}

	dev2 := tt.device("race-dev")
	waitFor(t, "hello reclaimed the session", func() bool {
		info, ok := sessionInfoOf(tt.host, "race-dev")
		return ok && info.State == "resident" && info.Connected
	})
	ls := tt.host.Lifecycle()
	if ls.Rehydrations != 0 {
		t.Fatalf("rehydrations = %d, want 0 (memory was never dropped)", ls.Rehydrations)
	}
	if ls.Hibernations != 0 {
		t.Fatalf("hibernations = %d, want 0 (the drop was aborted)", ls.Hibernations)
	}
	st, ok := tt.host.SessionStats("race-dev")
	if !ok || st.Notifications != 2 {
		t.Fatalf("stats after reclaim = %+v ok=%v", st, ok)
	}
	readAll(t, dev2, topic, []string{"r-0", "r-1"})
}

// TestRehydrateThenImmediateDisconnect cycles hibernate → rehydrate →
// instant disconnect → second hibernation: the freshly rebuilt proxy must
// arm a new countdown and spool again without losing anything.
func TestRehydrateThenImmediateDisconnect(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	const topic = "cycle/t"
	dev := tt.device("cycle-dev")
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("cycle-pub")
	publishSeq(t, pub, topic, "c", 0, 2)
	waitFor(t, "2 notifications resident", func() bool {
		st, ok := tt.host.SessionStats("cycle-dev")
		return ok && st.Notifications >= 2
	})
	_ = dev.Close()
	waitFor(t, "first hibernation", func() bool {
		return tt.host.Lifecycle().Hibernations == 1
	})

	// Reconnect (rehydrates) and drop the connection immediately, before
	// any read.
	dev2 := tt.device("cycle-dev")
	waitFor(t, "rehydrated", func() bool {
		info, ok := sessionInfoOf(tt.host, "cycle-dev")
		return ok && info.State == "resident"
	})
	_ = dev2.Close()
	waitFor(t, "second hibernation", func() bool {
		ls := tt.host.Lifecycle()
		return ls.Hibernations == 2 && ls.Hibernated == 1
	})

	dev3 := tt.device("cycle-dev")
	if err := dev3.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	readAll(t, dev3, topic, []string{"c-0", "c-1"})
	if got := tt.host.Lifecycle().Rehydrations; got != 2 {
		t.Fatalf("rehydrations = %d, want 2", got)
	}
}

// TestDoubleRehydrateTwoConnections races two connections helloing the
// same hibernated name: the wheel serializes the attaches, so exactly one
// rehydration runs and the second connection supersedes the first on the
// already-resident session.
func TestDoubleRehydrateTwoConnections(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	const topic = "dbl/t"
	dev := tt.device("dbl-dev")
	if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	pub := tt.publisher("dbl-pub")
	publishSeq(t, pub, topic, "d", 0, 2)
	waitFor(t, "2 notifications resident", func() bool {
		st, ok := tt.host.SessionStats("dbl-dev")
		return ok && st.Notifications >= 2
	})
	_ = dev.Close()
	waitFor(t, "hibernated", func() bool {
		info, ok := sessionInfoOf(tt.host, "dbl-dev")
		return ok && info.State == "hibernated"
	})

	// Two concurrent hellos for the same name.
	var wg sync.WaitGroup
	conns := make([]*wire.DeviceClient, 2)
	errs := make([]error, 2)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = wire.DialProxy(tt.addr, "dbl-dev")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer conns[i].Close()
	}
	waitFor(t, "resident after the double hello", func() bool {
		info, ok := sessionInfoOf(tt.host, "dbl-dev")
		return ok && info.State == "resident"
	})
	if got := tt.host.Lifecycle().Rehydrations; got != 1 {
		t.Fatalf("rehydrations = %d, want exactly 1", got)
	}

	// One of the two won the session; the survivor can read everything.
	// (The loser's connection was superseded and closed by the host.)
	info, _ := sessionInfoOf(tt.host, "dbl-dev")
	if info.Connects != 3 { // initial + both racers
		t.Fatalf("connects = %d, want 3", info.Connects)
	}
	winner := conns[1]
	if err := winner.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
		// The loser errors here because its connection is closed; retry
		// with the other one.
		winner = conns[0]
		if err := winner.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
			t.Fatalf("neither racer can use the session: %v", err)
		}
	}
	readAll(t, winner, topic, []string{"d-0", "d-1"})
}

// TestFirstContactChurn pins the lock order wheel callback → h.mu → s.mu:
// first-contact hellos take h.mu to create their session while the 1 ms
// commit tick takes h.mu inside a wheel callback. Building the new session's
// proxy on the wheel under h.mu (the parent did) deadlocks the two, and
// every later handler parks behind them.
func TestFirstContactChurn(t *testing.T) {
	opts := hibOpts(t.TempDir())
	opts.SpoolCommitEvery = time.Millisecond
	tt := newTopology(t, opts)
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev, err := wire.DialProxy(tt.addr, fmt.Sprintf("churn-%d", i))
			if err != nil {
				errs <- err
				return
			}
			_ = dev.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("first-contact hellos deadlocked against the commit tick")
	}
	close(errs)
	for err := range errs {
		t.Errorf("hello: %v", err)
	}
	if got := len(tt.host.Sessions()); got != n {
		t.Errorf("sessions = %d, want %d", got, n)
	}
}

// TestKillRestartRecovery is the in-process chaos drill: hibernate a fleet,
// let deltas accumulate, SIGKILL-equivalent the host (Kill drops every fd
// without flushing), and bring up a fresh host — with a different worker
// count — on the same spool. Every session must come back as a directory
// entry, the multiplexed subscriptions must be re-established, and a full
// drain must see every notification published before and after the crash.
func TestKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	const topic = "kill/t"
	names := []string{"kill-dev-0", "kill-dev-1", "kill-dev-2", "kill-dev-3"}
	for _, name := range names {
		dev := tt.device(name)
		if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
			t.Fatal(err)
		}
		_ = dev.Close()
	}
	waitFor(t, "all sessions hibernated", func() bool {
		ls := tt.host.Lifecycle()
		return ls.Hibernated == len(names)
	})

	// Publish into the hibernated fleet: every copy lands as a delta.
	pub := tt.publisher("kill-pub")
	publishSeq(t, pub, topic, "k", 0, 3)
	wantDeltas := 3 * len(names)
	waitFor(t, "deltas durable", func() bool {
		return countSpoolRecords(t, dir, spool.KindDelta) >= wantDeltas
	})

	tt.host.Kill()

	// Restart on the same spool with a different shard count: chains
	// recorded under worker-0/worker-1 must still resolve (Loc carries the
	// full path).
	opts := hibOpts(dir)
	opts.Workers = 3
	opts.BrokerAddr = tt.brokerAddr
	opts.Name = "test-host"
	h2, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(h2.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h2.Serve(lis) }()

	if got := len(h2.Sessions()); got != len(names) {
		t.Fatalf("recovered %d sessions, want %d", got, len(names))
	}
	for _, name := range names {
		info, ok := sessionInfoOf(h2, name)
		if !ok || info.State != "hibernated" {
			t.Fatalf("session %s after recovery: %+v ok=%v", name, info, ok)
		}
	}
	if refs := h2.TopicRefs(topic); refs != len(names) {
		t.Fatalf("TopicRefs after recovery = %d, want %d", refs, len(names))
	}
	if subs := tt.broker.Subscribers(topic); len(subs) != 1 || subs[0] != "test-host" {
		t.Fatalf("broker subscribers after recovery = %v", subs)
	}

	// Traffic published after the restart reaches the recovered sessions
	// through the re-established subscription.
	publishSeq(t, pub, topic, "after", 0, 1)
	waitFor(t, "post-restart delta fan-out", func() bool {
		return countSpoolRecords(t, dir, spool.KindDelta) >= wantDeltas+len(names)
	})

	// Drain: every device reconnects to the new host and must see every
	// pre-crash and post-crash notification. Zero loss, duplicates allowed.
	want := []string{"k-0", "k-1", "k-2", "after-0"}
	for _, name := range names {
		dev, err := wire.DialProxy(lis.Addr().String(), name)
		if err != nil {
			t.Fatalf("redial %s: %v", name, err)
		}
		if err := dev.Subscribe(topic, wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}); err != nil {
			t.Fatalf("reassert %s: %v", name, err)
		}
		readAll(t, dev, topic, want)
		_ = dev.Close()
	}
	if ls := h2.Lifecycle(); ls.Rehydrations != int64(len(names)) || ls.RehydrateFailures != 0 {
		t.Fatalf("lifecycle after drain = %+v", ls)
	}
}

// TestKillRecoveryHonorsUnsubscribe pins the durability of topic
// membership changes against a stale spool chain: a session hibernates
// with two topics, reconnects, unsubscribes one, and the host is killed
// before any fresh snapshot supersedes the chain. Recovery must apply the
// membership correction — pre-fix it resurrected the unsubscribed topic
// from the stale snapshot meta, re-took a reference, and re-subscribed the
// host upstream, leaving a phantom subscription feeding traffic the device
// explicitly dropped.
func TestKillRecoveryHonorsUnsubscribe(t *testing.T) {
	dir := t.TempDir()
	tt := newTopology(t, hibOpts(dir))
	const keep = "stale/keep"
	const dropped = "stale/drop"
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}

	dev := tt.device("stale-dev")
	for _, topic := range []string{keep, dropped} {
		if err := dev.Subscribe(topic, policy); err != nil {
			t.Fatal(err)
		}
	}
	_ = dev.Close()
	waitFor(t, "session hibernated with both topics", func() bool {
		info, ok := sessionInfoOf(tt.host, "stale-dev")
		return ok && info.State == "hibernated"
	})

	// Reconnect and unsubscribe one topic. The session stays connected
	// afterwards, so no new snapshot is written: on disk, only the
	// membership delta contradicts the snapshot's topic list.
	dev2 := tt.device("stale-dev")
	waitFor(t, "session resident", func() bool {
		info, ok := sessionInfoOf(tt.host, "stale-dev")
		return ok && info.State == "resident" && info.Connected
	})
	if err := dev2.Unsubscribe(dropped); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream drained", func() bool {
		return tt.host.TopicRefs(dropped) == 0 && len(tt.broker.Subscribers(dropped)) == 0
	})

	tt.host.Kill()
	opts := hibOpts(dir)
	opts.BrokerAddr = tt.brokerAddr
	opts.Name = "test-host"
	h2, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(h2.Close)

	info, ok := sessionInfoOf(h2, "stale-dev")
	if !ok || info.State != "hibernated" {
		t.Fatalf("session after recovery: %+v ok=%v", info, ok)
	}
	if info.Topics != 1 {
		t.Fatalf("recovered session holds %d topics, want 1 (the unsubscribe was lost)", info.Topics)
	}
	if refs := h2.TopicRefs(keep); refs != 1 {
		t.Fatalf("TopicRefs(%s) = %d, want 1", keep, refs)
	}
	if refs := h2.TopicRefs(dropped); refs != 0 {
		t.Fatalf("TopicRefs(%s) = %d, want 0: recovery resurrected the unsubscribed topic", dropped, refs)
	}
	if subs := tt.broker.Subscribers(dropped); len(subs) != 0 {
		t.Fatalf("broker subscribers for %s = %v, want none (phantom upstream subscription)", dropped, subs)
	}
	if subs := tt.broker.Subscribers(keep); len(subs) != 1 {
		t.Fatalf("broker subscribers for %s = %v, want the host", keep, subs)
	}
}
