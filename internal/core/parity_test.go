package core

// Regression tests for the batch/quiet-window policy-parity fixes: a burst
// must leave the proxy exactly as the per-event Figure 7 loop it replaced
// did, undelivered picks must return to the queue they came from, and the
// §2.2 daily on-line cap must be charged when an event is actually pushed,
// not when it is deferred by a quiet window.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// parityDriver runs one proxy through a scenario and keeps a transcript of
// it: the topic snapshot after every op, then the forwarded-ID sequence
// and the forward counters. The digests the tests compare transcripts
// against were recorded from the per-event path, which forwarded one
// notification per call and stopped at the first failure.
type parityDriver struct {
	sched      *simtime.Virtual
	proxy      *Proxy
	dev        *fakeDevice
	transcript strings.Builder
}

func newParityDriver(t *testing.T, cfg TopicConfig) *parityDriver {
	t.Helper()
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(sched, dev)
	if err := p.AddTopic(cfg); err != nil {
		t.Fatalf("AddTopic: %v", err)
	}
	return &parityDriver{sched: sched, proxy: p, dev: dev}
}

func (d *parityDriver) note(id msg.ID, rank float64) *msg.Notification {
	return &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: d.sched.Now()}
}

func (d *parityDriver) snapshot() TopicSnapshot {
	s, _ := d.proxy.Snapshot("t")
	return s
}

// record appends the state after an op to the transcript.
func (d *parityDriver) record(op string) {
	fmt.Fprintf(&d.transcript, "%s: %+v\n", op, d.snapshot())
}

// digest closes the transcript and hashes it.
func (d *parityDriver) digest() string {
	st := d.proxy.Stats()
	fmt.Fprintf(&d.transcript, "forwarded %v\nforwards %d signals %d\n", d.dev.ids(), st.Forwards, st.RankDropSignals)
	sum := sha256.Sum256([]byte(d.transcript.String()))
	return hex.EncodeToString(sum[:8])
}

// TestBatchForwarderEquivalence drives the proxy through outages, a
// rejected transmission and a link that dies part-way through a burst,
// and checks every step against the per-event path's digest. Before the
// origin-queue fix the batch path re-queued failed prefetch picks into
// outgoing, so after recovery it delivered stale picks instead of the
// better-ranked arrivals the per-event path chooses.
func TestBatchForwarderEquivalence(t *testing.T) {
	const want = "12c8fe1f875d6122"
	d := newParityDriver(t, BufferConfig("t", 2, 2))
	notify := func(id msg.ID, rank float64) {
		d.proxy.Notify(d.note(id, rank))
		d.record("notify " + string(id))
	}
	read := func(n, queued int) {
		if err := d.proxy.Read(msg.ReadRequest{Topic: "t", N: n, QueueSize: queued}); err != nil {
			t.Fatal(err)
		}
		d.record(fmt.Sprintf("read %d, %d queued", n, queued))
	}
	network := func(up bool, op string) {
		d.proxy.SetNetwork(up)
		d.record(op)
	}

	// Plain deliveries up to the prefetch limit, then a read that frees
	// the client queue.
	notify("p1", 5)
	notify("p2", 3)
	read(2, 2)
	// An outage queues two events in the prefetch stage.
	network(false, "outage")
	notify("b9", 9)
	notify("a1", 1)
	// The link comes back but the device rejects the first transmission:
	// the picks must return to their origin queues.
	d.dev.fail = true
	network(true, "rejected recovery")
	// A better event arrives while the proxy considers the network down,
	// then the device recovers.
	notify("h8", 8)
	d.dev.fail = false
	network(true, "recovery")
	// A read drains what the prefetch limit held back.
	read(4, 2)
	// A read during the next outage promotes two events; on recovery the
	// device takes one and the link dies before the other.
	network(false, "outage")
	notify("c7", 7)
	notify("c6", 6)
	notify("c5", 5)
	read(2, 2)
	d.dev.failAfter = 1
	network(true, "recovery dies after one delivery")
	d.dev.fail = false
	network(true, "recovery")

	if got := d.digest(); got != want {
		t.Errorf("digest %s, want the per-event path's %s; transcript:\n%s", got, want, d.transcript.String())
	}
}

// TestBatchFailureReturnsPicksToOriginQueues pins the fix directly: after
// a failed batch, outgoing picks are back in outgoing and prefetch picks
// back in prefetch.
func TestBatchFailureReturnsPicksToOriginQueues(t *testing.T) {
	d := newParityDriver(t, BufferConfig("t", 2, 2))
	d.proxy.SetNetwork(false)
	d.proxy.Notify(d.note("x", 4))
	d.proxy.Notify(d.note("y", 6))
	d.dev.fail = true
	d.proxy.SetNetwork(true)
	s := d.snapshot()
	if s.Outgoing != 0 || s.Prefetch != 2 {
		t.Fatalf("failed prefetch picks promoted: outgoing=%d prefetch=%d, want 0/2", s.Outgoing, s.Prefetch)
	}
}

// TestBatchFailureRetunedLimitRegression: a failed batch of prefetch
// picks, a read that retunes the prefetch limit down, then recovery. The
// pre-fix promotion to outgoing made the drain unconditional, driving the
// client-queue view past the retuned limit.
func TestBatchFailureRetunedLimitRegression(t *testing.T) {
	cfg := TopicConfig{Name: "t", Policy: Buffer, ReadSize: 1, PrefetchLimit: 4, AutoPrefetchLimit: true}
	d := newParityDriver(t, cfg)
	d.proxy.SetNetwork(false)
	for i, rank := range []float64{4, 3, 2, 1} {
		d.proxy.Notify(d.note(msg.ID(fmt.Sprintf("e%d", i)), rank))
	}
	// The device rejects the recovery batch of four prefetch picks.
	d.dev.fail = true
	d.proxy.SetNetwork(true)
	// A read retunes the limit down to 2*mean(read sizes) = 2.
	if err := d.proxy.Read(msg.ReadRequest{Topic: "t", N: 1, QueueSize: 0}); err != nil {
		t.Fatal(err)
	}
	d.dev.fail = false
	d.proxy.SetNetwork(true)
	s := d.snapshot()
	if s.PrefetchLimit != 2 {
		t.Fatalf("retuned prefetch limit = %d, want 2", s.PrefetchLimit)
	}
	if s.QueueSizeView > s.PrefetchLimit {
		t.Fatalf("client-queue view %d exceeds prefetch limit %d after recovery", s.QueueSizeView, s.PrefetchLimit)
	}
}

// TestBufferBatchPrefetchLimitProperty: under random arrivals, reads,
// outages, rejected transmissions and links that die part-way through a
// burst, the proxy must track the per-event Figure 7 path step for step —
// the Buffer and the Rate policy each against a digest recorded from it —
// and the buffer policy's opportunistic refill must never grow the
// client-queue view past the prefetch limit. The view may legitimately
// exceed the limit only by draining user-promoted outgoing events, so the
// absolute bound is asserted whenever the outgoing queue was empty before
// the op.
func TestBufferBatchPrefetchLimitProperty(t *testing.T) {
	for _, c := range []struct {
		cfg  TopicConfig
		want string
	}{
		{TopicConfig{Name: "t", Policy: Buffer, ReadSize: 2, PrefetchLimit: 8, AutoPrefetchLimit: true}, "d975cdf851bc6836"},
		{RateConfig("t", 2), "68c2fb60d981bf33"},
	} {
		digests := sha256.New()
		partials := 0
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := newParityDriver(t, c.cfg)
			for op := 0; op < 300; op++ {
				before := d.snapshot()
				kind := rng.Intn(11)
				n := 1 + rng.Intn(3)
				rank := rng.Float64() * 10
				hours := time.Duration(6+rng.Intn(24)) * time.Hour
				switch kind {
				case 0, 1, 2, 3: // arrival
					d.proxy.Notify(d.note(msg.ID(fmt.Sprintf("n%d", op)), rank))
				case 4: // outage
					d.proxy.SetNetwork(false)
				case 5: // recovery
					d.proxy.SetNetwork(true)
				case 6: // the device rejects the next transmission attempt
					d.dev.fail = true
					d.proxy.SetNetwork(true)
					d.dev.fail = false
				case 7: // the device takes n, then the link dies mid-burst
					received := len(d.dev.received)
					d.dev.failAfter = n
					d.proxy.SetNetwork(true)
					if len(d.dev.received) > received && !d.proxy.NetworkUp() {
						partials++
					}
					d.dev.fail, d.dev.failAfter = false, 0
				case 8, 9: // user read
					if err := d.proxy.Read(msg.ReadRequest{Topic: "t", N: n, QueueSize: before.QueueSizeView}); err != nil {
						t.Fatal(err)
					}
				case 10: // time passes
					d.sched.Advance(hours)
				}
				d.record(fmt.Sprintf("seed %d op %d kind %d", seed, op, kind))
				s := d.snapshot()
				if c.cfg.Policy == Buffer && kind != 8 && kind != 9 && before.Outgoing == 0 &&
					s.QueueSizeView > s.PrefetchLimit && s.QueueSizeView > before.QueueSizeView {
					t.Fatalf("seed %d op %d: refill grew client-queue view to %d past prefetch limit %d",
						seed, op, s.QueueSizeView, s.PrefetchLimit)
				}
			}
			digests.Write([]byte(d.digest()))
		}
		if partials == 0 {
			t.Errorf("%v: no burst failed part-way, so the scenario never exercised a partial forward", c.cfg.Policy)
		}
		if got := hex.EncodeToString(digests.Sum(nil)[:8]); got != c.want {
			t.Errorf("%v: digest %s, want the per-event path's %s", c.cfg.Policy, got, c.want)
		}
	}
}

// TestQuietReleaseCrossesMidnightChargesNewDay: an event held through a
// quiet window that ends past midnight must draw on the new day's on-line
// budget. Before the fix the cap was charged on the arrival day, so the
// spent budget of yesterday silently demoted the release to the staging
// path.
func TestQuietReleaseCrossesMidnightChargesNewDay(t *testing.T) {
	cfg := OnlineConfig("t")
	cfg.DailyOnlineCap = 1
	cfg.Quiet = []QuietWindow{{Start: 23 * time.Hour, End: 24 * time.Hour}}
	f := newFixture(t, cfg)

	// Noon: the day's single on-line delivery.
	f.sched.Advance(12 * time.Hour)
	f.proxy.Notify(f.note("a", 5, 0))
	if got := f.dev.ids(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("day-0 delivery: %v", got)
	}
	// 23:30, inside the quiet window: deferred to midnight.
	f.sched.Advance(11*time.Hour + 30*time.Minute)
	f.proxy.Notify(f.note("b", 5, 0))
	if len(f.dev.received) != 1 {
		t.Fatalf("quiet arrival delivered immediately: %v", f.dev.ids())
	}
	// Midnight: the release crosses into a fresh budget and must be
	// delivered on-line.
	f.sched.Advance(30 * time.Minute)
	if got := f.dev.ids(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("release crossing midnight not delivered on-line: %v", got)
	}
	// The release consumed the new day's budget: the next arrival is
	// capped onto the staging path.
	f.proxy.Notify(f.note("c", 5, 0))
	if len(f.dev.received) != 2 {
		t.Fatalf("cap not charged at release: %v", f.dev.ids())
	}
}

// TestQuietDeferralDoesNotChargeDailyCap: an event that is deferred by a
// quiet window and then retracted before release must not consume the
// day's on-line budget.
func TestQuietDeferralDoesNotChargeDailyCap(t *testing.T) {
	cfg := OnlineConfig("t")
	cfg.DailyOnlineCap = 1
	cfg.RankThreshold = 2
	cfg.Quiet = []QuietWindow{{Start: time.Hour, End: 2 * time.Hour}}
	f := newFixture(t, cfg)

	// 01:30, inside the window: "a" is deferred.
	f.sched.Advance(90 * time.Minute)
	f.proxy.Notify(f.note("a", 5, 0))
	// Its rank is retracted before the window ends; it will never be
	// delivered and must not have spent the budget.
	f.proxy.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 1})
	f.sched.Advance(time.Hour)
	if len(f.dev.received) != 0 {
		t.Fatalf("retracted deferral delivered: %v", f.dev.ids())
	}
	// 02:30: the budget must still be available.
	f.proxy.Notify(f.note("b", 5, 0))
	if got := f.dev.ids(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("daily budget consumed by an undelivered deferral: %v", got)
	}
}

// TestQuietWindowWrapAroundContains covers the midnight boundary of an
// overnight window (22:00-07:00).
func TestQuietWindowWrapAroundContains(t *testing.T) {
	w := QuietWindow{Start: 22 * time.Hour, End: 7 * time.Hour}
	if err := w.Validate(); err != nil {
		t.Fatalf("overnight window rejected: %v", err)
	}
	at := func(h, m int) time.Time {
		return time.Date(2026, 1, 15, h, m, 0, 0, time.UTC)
	}
	cases := []struct {
		t    time.Time
		in   bool
		left time.Duration
	}{
		{at(21, 59), false, 0},
		{at(22, 0), true, 9 * time.Hour},
		{at(23, 30), true, 7*time.Hour + 30*time.Minute},
		{at(0, 0), true, 7 * time.Hour},
		{at(6, 59), true, time.Minute},
		{at(7, 0), false, 0},
		{at(12, 0), false, 0},
	}
	for _, c := range cases {
		in, left := w.contains(c.t)
		if in != c.in || left != c.left {
			t.Errorf("contains(%v) = %v, %v; want %v, %v", c.t, in, left, c.in, c.left)
		}
	}
}

// TestOvernightQuietWindowDelivery exercises the wrap-around window
// end-to-end: both legs defer, and the evening leg releases at the
// window's end the next morning.
func TestOvernightQuietWindowDelivery(t *testing.T) {
	cfg := OnlineConfig("t")
	cfg.Quiet = []QuietWindow{{Start: 22 * time.Hour, End: 7 * time.Hour}}
	f := newFixture(t, cfg)

	// t0 is midnight: inside the morning leg.
	f.proxy.Notify(f.note("night", 5, 0))
	if len(f.dev.received) != 0 {
		t.Fatalf("morning-leg arrival delivered: %v", f.dev.ids())
	}
	f.sched.Advance(7 * time.Hour)
	if got := f.dev.ids(); len(got) != 1 || got[0] != "night" {
		t.Fatalf("morning-leg release: %v", got)
	}
	// Midday is outside the window.
	f.sched.Advance(5 * time.Hour)
	f.proxy.Notify(f.note("noon", 5, 0))
	if got := f.dev.ids(); len(got) != 2 || got[1] != "noon" {
		t.Fatalf("midday arrival not delivered: %v", got)
	}
	// 23:00 is the evening leg; release is 07:00 the next morning.
	f.sched.Advance(11 * time.Hour)
	f.proxy.Notify(f.note("late", 5, 0))
	if len(f.dev.received) != 2 {
		t.Fatalf("evening-leg arrival delivered: %v", f.dev.ids())
	}
	f.sched.Advance(7 * time.Hour) // 06:00: still quiet
	if len(f.dev.received) != 2 {
		t.Fatalf("released before the window ended: %v", f.dev.ids())
	}
	f.sched.Advance(time.Hour) // 07:00
	if got := f.dev.ids(); len(got) != 3 || got[2] != "late" {
		t.Fatalf("evening-leg release: %v", got)
	}
}
