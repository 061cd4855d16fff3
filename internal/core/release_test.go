package core

import (
	"sync"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// releaseLog counts releaser invocations per notification pointer, so the
// exactly-once contract is assertable per object (a double release is a
// double-Put in production; a missing one is a pool leak).
type releaseLog struct {
	mu     sync.Mutex
	counts map[*msg.Notification]int
}

func newReleaseLog() *releaseLog {
	return &releaseLog{counts: make(map[*msg.Notification]int)}
}

func (r *releaseLog) release(n *msg.Notification) {
	r.mu.Lock()
	r.counts[n]++
	r.mu.Unlock()
}

func (r *releaseLog) count(n *msg.Notification) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[n]
}

func (r *releaseLog) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := 0
	for _, c := range r.counts {
		t += c
	}
	return t
}

// TestReleaseOnArrivalDrops covers the ingress paths that drop a
// notification without remembering it: each must hand the reference to
// the releaser exactly once.
func TestReleaseOnArrivalDrops(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	log := newReleaseLog()
	f.proxy.SetReleaser(log.release)

	// Unknown topic: dropped immediately.
	ghost := &msg.Notification{ID: "g", Topic: "ghost", Rank: 5, Published: f.sched.Now()}
	f.proxy.Notify(ghost)
	if got := log.count(ghost); got != 1 {
		t.Errorf("unknown-topic drop released %d times, want 1", got)
	}

	// Seen-set re-arrival: the second copy is a rank revision carrier and
	// is dropped after its rank is read; the first copy stays retained.
	first := f.note("a", 5, time.Hour)
	f.proxy.Notify(first)
	dup := f.note("a", 2, time.Hour)
	f.proxy.Notify(dup)
	if got := log.count(dup); got != 1 {
		t.Errorf("seen-set duplicate released %d times, want 1", got)
	}
	if got := log.count(first); got != 0 {
		t.Errorf("retained original released %d times, want 0", got)
	}

	// Expired on arrival: rejected and dropped.
	dead := f.note("x", 5, time.Second)
	f.sched.Advance(2 * time.Second)
	f.proxy.Notify(dead)
	if got := log.count(dead); got != 1 {
		t.Errorf("expired-on-arrival drop released %d times, want 1", got)
	}

	// Terminal: removing the topic releases the retained original, once.
	if err := f.proxy.RemoveTopic("t"); err != nil {
		t.Fatal(err)
	}
	if got := log.count(first); got != 1 {
		t.Errorf("original released %d times after RemoveTopic, want 1", got)
	}
}

// TestReleaseAfterFigure7Expiry pins the lifetime of a notification that
// dies in a Figure 7 queue: the expiration timeout evicts it from the
// queues but the proxy still remembers the ID (and may emit trace events
// reading the retained object), so the pool reference is released at the
// terminal forget — exactly once, never at the expiry itself.
func TestReleaseAfterFigure7Expiry(t *testing.T) {
	f := newFixture(t, OnlineConfig("t"))
	log := newReleaseLog()
	f.proxy.SetReleaser(log.release)

	f.proxy.SetNetwork(false)
	n := f.note("e", 5, time.Second)
	f.proxy.Notify(n)
	f.sched.Advance(2 * time.Second) // expiration_timeout fires in-queue
	if got := f.proxy.Stats().Expirations; got != 1 {
		t.Fatalf("Expirations = %d, want 1", got)
	}
	if got := log.count(n); got != 0 {
		t.Errorf("released %d times at expiry, want 0 (still known)", got)
	}
	if err := f.proxy.RemoveTopic("t"); err != nil {
		t.Fatal(err)
	}
	if got := log.count(n); got != 1 {
		t.Errorf("released %d times after RemoveTopic, want 1", got)
	}
}

// TestReleaseAfterFailedBatchRequeue pins the failed-forward path: a
// batch rejected by the device is requeued with ownership retained (no
// release), delivered once the link returns, and released exactly once at
// the terminal drop.
func TestReleaseAfterFailedBatchRequeue(t *testing.T) {
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(sched, dev)
	if err := p.AddTopic(OnlineConfig("t")); err != nil {
		t.Fatal(err)
	}
	log := newReleaseLog()
	p.SetReleaser(log.release)

	dev.fail = true
	notes := make([]*msg.Notification, 3)
	for i, id := range []msg.ID{"a", "b", "c"} {
		notes[i] = &msg.Notification{ID: id, Topic: "t", Rank: 5, Published: sched.Now()}
		p.Notify(notes[i])
	}
	if got := log.total(); got != 0 {
		t.Fatalf("failed batch released %d notes, want 0 (requeued, ownership retained)", got)
	}

	dev.fail = false
	p.SetNetwork(true)
	if got := len(dev.received); got != 3 {
		t.Fatalf("delivered %d notes after the link came back, want 3", got)
	}
	if got := log.total(); got != 0 {
		t.Fatalf("delivered notes released %d times, want 0 (still known for revisions)", got)
	}

	if err := p.RemoveTopic("t"); err != nil {
		t.Fatal(err)
	}
	for _, n := range notes {
		if got := log.count(n); got != 1 {
			t.Errorf("note %s released %d times, want exactly 1", n.ID, got)
		}
	}
}
