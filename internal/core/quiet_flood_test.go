package core

import (
	"fmt"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// TestQuietReleaseFloodAtSlotBoundary pins the quiet-window release path
// under a flood of notes deferred from six instants to one release
// instant, midnight (t0 is midnight, and the quiet window ends at the next
// one). That the live wheel fires such a flood on its tick, however the
// cascade brings it down, is simtime's TestWallWheelCascadeBoundary. The
// assertions here guard three failure modes of the proxy:
//
//   - the release instant: nothing may release a second before midnight,
//     and *everything* must release at midnight itself;
//   - cap accounting: the daily cap is charged once per released note at
//     release time, against the delivery day — the arrival day's budget is
//     already spent when the flood arrives, so a defer-time (or
//     arrival-day) charge would release nothing;
//   - exactly-once release: each flooded note surfaces exactly once, as
//     either an on-line delivery or a staged overflow, never both.
func TestQuietReleaseFloodAtSlotBoundary(t *testing.T) {
	const (
		dailyCap = 10
		batches  = 6
		perBatch = 333
		flood    = batches * perBatch // 1998 deferred notes
	)

	clock := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(clock, dev)
	cfg := OnlineConfig("t")
	cfg.DailyOnlineCap = dailyCap
	cfg.Quiet = []QuietWindow{{Start: 22 * time.Hour, End: 24 * time.Hour}}
	if err := p.AddTopic(cfg); err != nil {
		t.Fatal(err)
	}
	snap := func() TopicSnapshot {
		s, ok := p.Snapshot("t")
		if !ok {
			t.Fatal("topic t missing")
		}
		return s
	}

	// Exhaust day 0's on-line budget in the afternoon. A bug that charges
	// the cap when the flood is deferred — or against the arrival day —
	// would find the budget empty and release nothing at midnight.
	clock.Advance(12 * time.Hour)
	for i := 0; i < dailyCap; i++ {
		p.Notify(&msg.Notification{ID: msg.ID(fmt.Sprintf("day0-%d", i)), Topic: "t", Rank: 5, Published: clock.Now()})
	}
	if len(dev.received) != dailyCap {
		t.Fatalf("day-0 warmup delivered %d, want %d", len(dev.received), dailyCap)
	}
	p.Notify(&msg.Notification{ID: "day0-over", Topic: "t", Rank: 5, Published: clock.Now()})
	if s := snap(); s.Prefetch != 1 {
		t.Fatalf("day-0 overflow: prefetch = %d, want 1 (cap not exhausted?)", s.Prefetch)
	}
	dev.received = nil
	stagedBase := 1

	// Flood the quiet window from spread-out instants: every batch defers
	// over a different distance to the same release instant.
	offsets := []time.Duration{
		22 * time.Hour,
		22*time.Hour + time.Second,
		22*time.Hour + 59*time.Minute + 59*time.Second,
		23 * time.Hour,
		23*time.Hour + 30*time.Minute,
		23*time.Hour + 59*time.Minute + 59*time.Second,
	}
	sent := 0
	for b, off := range offsets {
		clock.Advance(t0.Add(off).Sub(clock.Now()))
		for i := 0; i < perBatch; i++ {
			p.Notify(&msg.Notification{ID: msg.ID(fmt.Sprintf("f%d-%d", b, i)), Topic: "t", Rank: 5, Published: clock.Now()})
			sent++
		}
	}
	if sent != flood {
		t.Fatalf("sent %d flood notes, want %d", sent, flood)
	}
	if s := snap(); s.Delayed != flood || s.Outgoing != 0 {
		t.Fatalf("mid-window: delayed = %d outgoing = %d, want %d and 0", s.Delayed, s.Outgoing, flood)
	}

	// One second before midnight: not a single early release.
	clock.Advance(t0.Add(24*time.Hour - time.Second).Sub(clock.Now()))
	if len(dev.received) != 0 {
		t.Fatalf("%d notes released a second before the window end", len(dev.received))
	}
	if s := snap(); s.Delayed != flood {
		t.Fatalf("one second early: delayed = %d, want %d", s.Delayed, flood)
	}

	// Midnight: the whole flood resolves at this one instant — dailyCap
	// on-line deliveries charged to the new day, the rest staged.
	clock.Advance(time.Second)
	if len(dev.received) != dailyCap {
		t.Fatalf("midnight delivered %d, want %d (cap of the delivery day)", len(dev.received), dailyCap)
	}
	s := snap()
	if s.Delayed != 0 {
		t.Fatalf("midnight left %d notes delayed", s.Delayed)
	}
	if want := stagedBase + flood - dailyCap; s.Prefetch != want {
		t.Fatalf("midnight staged %d notes, want %d", s.Prefetch-stagedBase, want-stagedBase)
	}
	seen := make(map[msg.ID]bool, dailyCap)
	for _, n := range dev.received {
		if seen[n.ID] {
			t.Fatalf("note %s delivered twice", n.ID)
		}
		seen[n.ID] = true
	}

	// The released notes spent the new day's entire budget: the next
	// arrival (outside the window now) must overflow to staging. An
	// under-charged release would let it through on-line.
	clock.Advance(time.Second)
	p.Notify(&msg.Notification{ID: "day1-probe", Topic: "t", Rank: 5, Published: clock.Now()})
	if len(dev.received) != dailyCap {
		t.Fatalf("post-flood probe delivered on-line (%d total deliveries): the flood under-charged the cap", len(dev.received))
	}
	if got := snap().Prefetch; got != stagedBase+flood-dailyCap+1 {
		t.Fatalf("post-flood probe: prefetch = %d, want %d", got, stagedBase+flood-dailyCap+1)
	}
}

// TestQuietReleaseRedeferAcrossWheelLevels covers the re-defer branch of
// quietTimeout: a release that fires exactly at the start of a second
// quiet window must re-arm for that window's end, two hours on, and fire
// at that instant, not inside the window and not later.
func TestQuietReleaseRedeferAcrossWheelLevels(t *testing.T) {
	clock := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(clock, dev)
	cfg := OnlineConfig("t")
	// Back-to-back windows: the first's release instant (03:00:00) is the
	// second's first quiet instant, so the release must re-defer.
	cfg.Quiet = []QuietWindow{
		{Start: 1 * time.Hour, End: 3 * time.Hour},
		{Start: 3 * time.Hour, End: 5 * time.Hour},
	}
	if err := p.AddTopic(cfg); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	p.Notify(&msg.Notification{ID: "deep", Topic: "t", Rank: 5, Published: clock.Now()})

	// The 03:00:00 release fires into the second window: re-deferred,
	// nothing delivered.
	clock.Advance(time.Hour)
	if len(dev.received) != 0 {
		t.Fatalf("delivered %d notes into the second quiet window", len(dev.received))
	}
	if s, _ := p.Snapshot("t"); s.Delayed != 1 {
		t.Fatalf("re-defer lost the note: delayed = %d, want 1", s.Delayed)
	}

	// One second before the second window's end: still held.
	clock.Advance(2*time.Hour - time.Second)
	if len(dev.received) != 0 {
		t.Fatalf("released %d notes a second before the second window end", len(dev.received))
	}
	clock.Advance(time.Second)
	if len(dev.received) != 1 {
		t.Fatalf("re-deferred release delivered %d notes at its instant, want 1", len(dev.received))
	}
}
