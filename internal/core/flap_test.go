package core

import (
	"strings"
	"testing"
	"time"

	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
)

// flapLink forwards proxy pushes into a real device.Device over a
// link.Link, and can be armed to take the link down right before the
// k-th delivery — reproducing a radio that dies in the middle of a READ
// response.
type flapLink struct {
	dev       *device.Device
	lnk       *link.Link
	dropAfter int // take the link down before this many successful forwards; 0 = never
	forwards  int
}

var _ BatchForwarder = (*flapLink)(nil)

func (f *flapLink) ForwardBatch(batch []*msg.Notification) error {
	return ForwardEach(batch, func(n *msg.Notification) error {
		if f.dropAfter > 0 && f.forwards >= f.dropAfter {
			f.dropAfter = 0
			f.lnk.SetUp(false)
		}
		if err := f.dev.Receive(n); err != nil {
			return err
		}
		f.forwards++
		return nil
	})
}

// TestLinkFlapMidRead drops the link in the middle of a READ response:
// the proxy must requeue the undelivered remainder, mark the network
// down, and replay the queue exactly once after the link returns. This
// is the wiring sim.Run uses, with the flap injected at the forwarder.
func TestLinkFlapMidRead(t *testing.T) {
	sched := newTestClock(t0)
	lnk := link.New(sched, true)
	fwd := &flapLink{lnk: lnk, dropAfter: 3}
	proxy := New(sched, fwd)
	if err := proxy.AddTopic(OnDemandConfig("t", 0)); err != nil {
		t.Fatal(err)
	}
	dev := device.New(sched, lnk, proxy, device.Config{})
	fwd.dev = dev

	ids := []msg.ID{"a", "b", "c", "d", "e", "f"}
	for i, id := range ids {
		proxy.Notify(&msg.Notification{ID: id, Topic: "t", Rank: float64(10 - i), Published: sched.Now()})
	}

	// The read relays to the proxy, which starts pushing the six staged
	// events; the link dies before the fourth crosses.
	batch1, err := dev.Read("t", 0)
	if err != nil {
		t.Fatalf("read during flap: %v", err)
	}
	if len(batch1) != 3 {
		t.Fatalf("read %d before the flap, want 3", len(batch1))
	}
	if lnk.Up() {
		t.Fatal("link should be down after the injected flap")
	}
	if proxy.NetworkUp() {
		t.Error("proxy did not notice the mid-read link loss")
	}

	// Stats must stay consistent: three pushes crossed, nothing vanished.
	ps, ds, ls := proxy.Stats(), dev.Stats(), lnk.Stats()
	if ps.Forwards != 3 {
		t.Errorf("proxy Forwards = %d, want 3", ps.Forwards)
	}
	if ds.Received != 3 || ds.ReadCount != 3 {
		t.Errorf("device Received = %d ReadCount = %d, want 3/3", ds.Received, ds.ReadCount)
	}
	if ls.MessagesDown != 3 || ls.MessagesUp != 1 || ls.Transitions != 1 {
		t.Errorf("link stats = %+v, want 3 down / 1 up / 1 transition", ls)
	}
	snap := snapshotOf(t, proxy, "t")
	if snap.Outgoing != 3 {
		t.Errorf("outgoing = %d after flap, want the 3 undelivered requeued", snap.Outgoing)
	}
	if snap.Forwarded != 3 {
		t.Errorf("forwarded = %d after flap, want 3", snap.Forwarded)
	}

	// Reads while down are served locally (nothing unread is cached, so
	// they are empty) and must not corrupt the queues.
	if empty, err := dev.Read("t", 0); err != nil || len(empty) != 0 {
		t.Fatalf("read while down = %d, %v; want empty", len(empty), err)
	}

	// Five seconds later the radio returns; the outage is accounted and
	// the requeued remainder is replayed exactly once.
	sched.Advance(5 * time.Second)
	lnk.SetUp(true)
	proxy.SetNetwork(true)

	batch2, err := dev.Read("t", 0)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	seen := msg.NewIDSet()
	for _, n := range append(batch1, batch2...) {
		if !seen.Add(n.ID) {
			t.Errorf("notification %s delivered twice across the flap", n.ID)
		}
	}
	for _, id := range ids {
		if !seen.Contains(id) {
			t.Errorf("notification %s lost across the flap", id)
		}
	}

	ps, ds, ls = proxy.Stats(), dev.Stats(), lnk.Stats()
	if ps.Forwards != 6 {
		t.Errorf("proxy Forwards = %d after recovery, want 6", ps.Forwards)
	}
	if ds.Received != 6 || ds.ReadCount != 6 {
		t.Errorf("device Received = %d ReadCount = %d after recovery, want 6/6", ds.Received, ds.ReadCount)
	}
	if ls.Transitions != 2 || ls.Downtime != 5*time.Second {
		t.Errorf("link Transitions = %d Downtime = %v, want 2 / 5s", ls.Transitions, ls.Downtime)
	}
	snap = snapshotOf(t, proxy, "t")
	if snap.Outgoing != 0 {
		t.Errorf("outgoing = %d after replay, want 0", snap.Outgoing)
	}
	if snap.Forwarded != 6 {
		t.Errorf("forwarded = %d after replay, want 6", snap.Forwarded)
	}
}

// TestLinkFlapRepeated flaps the link on every single delivery: each READ
// crosses exactly one notification before the radio dies again. However
// hostile the schedule, every notification must arrive exactly once.
func TestLinkFlapRepeated(t *testing.T) {
	sched := newTestClock(t0)
	lnk := link.New(sched, true)
	fwd := &flapLink{lnk: lnk}
	proxy := New(sched, fwd)
	if err := proxy.AddTopic(OnDemandConfig("t", 0)); err != nil {
		t.Fatal(err)
	}
	dev := device.New(sched, lnk, proxy, device.Config{})
	fwd.dev = dev

	const total = 8
	for i := 0; i < total; i++ {
		proxy.Notify(&msg.Notification{ID: msg.ID(strings.Repeat("x", i+1)), Topic: "t", Rank: float64(i), Published: sched.Now()})
	}

	seen := msg.NewIDSet()
	for round := 0; round < 2*total && seen.Len() < total; round++ {
		fwd.dropAfter = fwd.forwards + 1 // next delivery is the last before the flap
		batch, err := dev.Read("t", 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, n := range batch {
			if !seen.Add(n.ID) {
				t.Fatalf("round %d: %s delivered twice", round, n.ID)
			}
		}
		sched.Advance(time.Second)
		lnk.SetUp(true)
		proxy.SetNetwork(true)
	}
	if seen.Len() != total {
		t.Fatalf("delivered %d distinct notifications, want %d", seen.Len(), total)
	}
	if ds := dev.Stats(); ds.Received != total || ds.ReadCount != total {
		t.Errorf("device Received = %d ReadCount = %d, want %d/%d", ds.Received, ds.ReadCount, total, total)
	}
}

func snapshotOf(t *testing.T, p *Proxy, topic string) TopicSnapshot {
	t.Helper()
	s, ok := p.Snapshot(topic)
	if !ok {
		t.Fatalf("topic %q missing", topic)
	}
	return s
}

// TestResumeRequeuesLostForwards covers the in-flight loss the wire layer
// reconciles at session resumption: a notification the proxy forwarded
// into a dying connection is in neither the device's have nor read set
// and must be re-queued while its content is still known.
func TestResumeRequeuesLostForwards(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.Notify(f.note("a", 3, time.Hour))
	f.proxy.Notify(f.note("b", 2, time.Hour))
	f.proxy.Notify(f.note("c", 1, time.Hour))
	if got := len(f.dev.received); got != 3 {
		t.Fatalf("forwarded %d online, want 3", got)
	}

	// The device reconnects reporting: b still queued, a read, c never
	// arrived — it died with the old connection.
	if err := f.proxy.Resume("t", msg.NewIDSet("b"), msg.NewIDSet("a")); err != nil {
		t.Fatal(err)
	}
	if got := f.dev.ids(); len(got) != 4 || got[3] != "c" {
		t.Fatalf("deliveries after resume = %v, want c re-forwarded", got)
	}
	st := f.proxy.Stats()
	if st.Resumes != 1 || st.ResumeRequeued != 1 || st.ResumeLost != 0 {
		t.Errorf("resume stats = %+v, want 1 resume, 1 requeued, 0 lost", st)
	}
}

// TestResumeLostExpired: a forwarded-and-lost notification whose lifetime
// ran out during the outage is unrecoverable and counted as lost.
func TestResumeLostExpired(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.Notify(f.note("a", 3, time.Minute))
	f.sched.Advance(2 * time.Minute)

	if err := f.proxy.Resume("t", msg.NewIDSet(), msg.NewIDSet()); err != nil {
		t.Fatal(err)
	}
	if got := len(f.dev.received); got != 1 {
		t.Fatalf("expired notification re-forwarded: %v", f.dev.ids())
	}
	st := f.proxy.Stats()
	if st.ResumeLost != 1 || st.ResumeRequeued != 0 {
		t.Errorf("resume stats = %+v, want 1 lost, 0 requeued", st)
	}
}

// TestResumeReconcilesReadSet: IDs the user consumed offline are removed
// from the staging queues — they must never be transferred again — and
// the proxy's view of the client queue is reset to the device's report.
func TestResumeReconcilesReadSet(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 0))
	f.proxy.SetNetwork(false)
	f.proxy.Notify(f.note("a", 3, time.Hour))
	f.proxy.Notify(f.note("b", 2, time.Hour))
	if s := f.snapshot(t); s.Prefetch != 2 {
		t.Fatalf("prefetch = %d, want 2 staged during outage", s.Prefetch)
	}

	// The device read "a" from an earlier life of the session (for
	// example the proxy recovered from its journal and re-staged it).
	if err := f.proxy.Resume("t", msg.NewIDSet("b"), msg.NewIDSet("a")); err != nil {
		t.Fatal(err)
	}
	s := f.snapshot(t)
	if s.Prefetch != 1 {
		t.Errorf("prefetch = %d after resume, want the read ID removed", s.Prefetch)
	}
	if s.Forwarded != 1 {
		t.Errorf("forwarded = %d after resume, want the read ID marked", s.Forwarded)
	}
	if s.QueueSizeView != 1 {
		t.Errorf("queue size view = %d, want the device's report of 1", s.QueueSizeView)
	}
	if len(f.dev.received) != 0 {
		t.Errorf("resume transferred %v while the network is down", f.dev.ids())
	}
}

// TestResumeUnknownTopic: resuming a topic the proxy never subscribed to
// is an error, not a silent no-op.
func TestResumeUnknownTopic(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	err := f.proxy.Resume("ghost", msg.NewIDSet(), msg.NewIDSet())
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want unknown-topic error naming the topic", err)
	}
}

// TestResumeDoesNotDoubleQueue: an event that is both in the forwarded
// set and already staged (requeued by a failed forward) must not be
// queued a second time by resumption.
func TestResumeDoesNotDoubleQueue(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	f.proxy.Notify(f.note("a", 3, time.Hour)) // forwarded successfully
	f.dev.fail = true
	f.proxy.Notify(f.note("a", 5, time.Hour)) // rank revision fails, requeued
	f.dev.fail = false
	if s := f.snapshot(t); s.Outgoing != 1 {
		t.Fatalf("outgoing = %d, want the failed revision requeued", s.Outgoing)
	}

	if err := f.proxy.Resume("t", msg.NewIDSet(), msg.NewIDSet()); err != nil {
		t.Fatal(err)
	}
	// Resumption found "a" forwarded-but-absent, but it is already
	// staged in outgoing: forwarding it once (now that the resume turned
	// the network back on conceptually) must deliver exactly one copy.
	f.proxy.SetNetwork(true)
	if s := f.snapshot(t); s.Outgoing != 0 {
		t.Errorf("outgoing = %d after resume, want drained", s.Outgoing)
	}
	count := 0
	for _, id := range f.dev.ids() {
		if id == "a" {
			count++
		}
	}
	if count != 2 { // initial forward + one replay, never a third
		t.Errorf("a delivered %d times, want 2", count)
	}
	if st := f.proxy.Stats(); st.ResumeRequeued != 0 {
		t.Errorf("ResumeRequeued = %d, want 0 (already staged)", st.ResumeRequeued)
	}
}
