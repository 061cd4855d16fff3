package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"lasthop/internal/host"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/spool"
	"lasthop/internal/wire"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startHost starts a host on the spool dir with the given worker count,
// serving devices on a fresh loopback port.
func startHost(t *testing.T, dir, brokerAddr string, workers int) (*host.Host, string) {
	t.Helper()
	h, err := host.New(host.Options{
		Name:             "doctor-host",
		BrokerAddr:       brokerAddr,
		Workers:          workers,
		SpoolDir:         dir,
		HibernateAfter:   50 * time.Millisecond,
		SpoolCommitEvery: 10 * time.Millisecond,
		SpoolFsync:       spool.FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Serve(lis) }()
	return h, lis.Addr().String()
}

func dial(t *testing.T, addr, name string) *wire.DeviceClient {
	t.Helper()
	dev, err := wire.DialProxy(addr, name)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { _ = dev.Close() })
	return dev
}

func publish(t *testing.T, pub *wire.BrokerClient, topic, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := msg.ID(fmt.Sprintf("%s-%d", prefix, i))
		if err := pub.Publish(&msg.Notification{ID: id, Topic: topic, Rank: 1, Published: time.Now()}); err != nil {
			t.Fatalf("publish %s: %v", id, err)
		}
	}
}

// TestSpoolListingMatchesRecovery builds a spool that exercises three
// parts of the chain rule, and checks that the doctor lists exactly the
// sessions, topics and delta backlogs a restarted host restores from it:
//
//   - session A unsubscribes from a topic after its snapshot, so the
//     snapshot's topic list is stale;
//   - session B is tombstoned after its snapshot;
//   - session C's deltas sit in two worker directories, because the
//     worker count changed between runs.
func TestSpoolListingMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := wire.NewBrokerServer(pubsub.NewBroker("doctor-broker"), nil)
	go func() { _ = bs.Serve(bl) }()
	t.Cleanup(bs.Close)
	brokerAddr := bl.Addr().String()
	pub, err := wire.DialBroker(brokerAddr, "doctor-pub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	if err := pub.Advertise("c/t", ""); err != nil {
		t.Fatal(err)
	}

	// C must land on worker-1 once the host runs two workers (the host
	// shards sessions by FNV-1a of the name), so its second-run deltas
	// go to a different directory than its first-run chain.
	nameC := ""
	for i := 0; nameC == ""; i++ {
		f := fnv.New32a()
		name := fmt.Sprintf("dev-c%d", i)
		_, _ = f.Write([]byte(name))
		if f.Sum32()%2 == 1 {
			nameC = name
		}
	}
	policy := wire.TopicPolicy{Mode: "on-demand", Policy: "on-demand"}

	// Run 1, one worker: all three sessions hibernate, C owes three notes.
	h1, addr1 := startHost(t, dir, brokerAddr, 1)
	for name, topics := range map[string][]string{
		"dev-a": {"a/keep", "a/drop"},
		"dev-b": {"b/t"},
		nameC:   {"c/t"},
	} {
		dev := dial(t, addr1, name)
		for _, topic := range topics {
			if err := dev.Subscribe(topic, policy); err != nil {
				t.Fatal(err)
			}
		}
		_ = dev.Close()
	}
	waitFor(t, "three sessions hibernated", func() bool { return h1.Lifecycle().Hibernated == 3 })
	publish(t, pub, "c/t", "first", 3)
	waitFor(t, "run 1 deltas spooled", func() bool { return h1.Lifecycle().SpooledDeltas >= 3 })
	// A comes back and drops a topic; no fresh snapshot follows.
	devA := dial(t, addr1, "dev-a")
	waitFor(t, "A resident", func() bool { return h1.TopicRefs("a/drop") == 1 && h1.Lifecycle().Resident == 1 })
	if err := devA.Unsubscribe("a/drop"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A's unsubscribe applied", func() bool { return h1.TopicRefs("a/drop") == 0 })
	h1.Kill()

	// Run 2, two workers: C's next two notes spool under worker-1.
	h2, _ := startHost(t, dir, brokerAddr, 2)
	publish(t, pub, "c/t", "second", 2)
	waitFor(t, "run 2 deltas spooled", func() bool { return h2.Lifecycle().SpooledDeltas >= 2 })
	h2.Kill()
	for _, w := range []string{"worker-0", "worker-1"} {
		n := 0
		err := spool.ScanDir(filepath.Join(dir, w), 0, t.Logf, func(_ spool.Loc, r spool.Record) error {
			if r.Name == nameC && r.Kind == spool.KindDelta {
				n++
			}
			return nil
		})
		if err != nil || n == 0 {
			t.Fatalf("%s holds %d of C's deltas (%v); the fixture needs both directories", w, n, err)
		}
	}

	// B is tombstoned after its snapshot.
	sw, err := spool.Open(spool.Options{Dir: filepath.Join(dir, "worker-0"), Fsync: spool.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Append(spool.Record{Kind: spool.KindTombstone, Name: "dev-b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{dir}, &out); err != nil {
		t.Fatalf("doctor: %v\n%s", err, out.String())
	}
	type listed struct {
		topics string
		deltas int
	}
	got := map[string]listed{}
	row := regexp.MustCompile(`(?m)^(\S+)\s+snapshot \S+\s+topics=\d+ \[([^\]]*)\]\s+deltas=(\d+)`)
	for _, m := range row.FindAllStringSubmatch(out.String(), -1) {
		n, _ := strconv.Atoi(m[3])
		got[m[1]] = listed{m[2], n}
	}
	want := map[string]listed{
		// A's one delta is the unsubscribe correction itself.
		"dev-a": {"a/keep", 1},
		nameC:   {"c/t", 5},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("doctor lists %v, want %v:\n%s", got, want, out.String())
	}

	// A host restarted on the same spool restores the same sessions and
	// topics, and C's backlog delivers every one of its five notes.
	h3, addr3 := startHost(t, dir, brokerAddr, 2)
	var names []string
	for _, s := range h3.Sessions() {
		names = append(names, s.Name)
		if s.State != "hibernated" || s.Topics != 1 {
			t.Errorf("recovered session %+v, want hibernated with one topic", s)
		}
	}
	if len(names) != 2 || got[names[0]] == (listed{}) || got[names[1]] == (listed{}) {
		t.Fatalf("host recovered %v, doctor listed %v", names, got)
	}
	for topic, refs := range map[string]int{"a/keep": 1, "a/drop": 0, "b/t": 0, "c/t": 1} {
		if n := h3.TopicRefs(topic); n != refs {
			t.Errorf("recovered TopicRefs(%s) = %d, want %d", topic, n, refs)
		}
	}
	devC := dial(t, addr3, nameC)
	if err := devC.Subscribe("c/t", policy); err != nil {
		t.Fatal(err)
	}
	seen := map[msg.ID]bool{}
	waitFor(t, "C's five notes", func() bool {
		batch, err := devC.Read("c/t", 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, n := range batch {
			seen[n.ID] = true
		}
		return len(seen) == 5
	})
}
