package core

import (
	"testing"
	"time"

	"lasthop/internal/msg"
)

// TestRemoveTopicReleasesAllTimers pins the satellite fix for PR 5: removing
// a topic must leave zero live timers behind, whatever stage (delay, quiet
// window, expiration) each notification was parked in.
func TestRemoveTopicReleasesAllTimers(t *testing.T) {
	f := newFixture(t, TopicConfig{
		Name:     "t",
		Mode:     msg.OnDemand,
		Policy:   Buffer,
		ReadSize: 4,
		Delay:    time.Minute,
	})
	// Delay-stage timers plus expiry timers for the expirable events.
	for i := 0; i < 8; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('a'+i)), float64(i), time.Hour))
	}
	for i := 0; i < 4; i++ {
		f.proxy.Notify(f.note(msg.ID(rune('p'+i)), 1, 0)) // never expires: delay timer only
	}
	if f.sched.Pending() == 0 {
		t.Fatal("expected live timers before removal")
	}
	if err := f.proxy.RemoveTopic("t"); err != nil {
		t.Fatalf("RemoveTopic: %v", err)
	}
	if got := f.sched.Pending(); got != 0 {
		t.Fatalf("timers leaked after RemoveTopic: %d still pending", got)
	}
}

// TestRemoveTopicQuietWindowTimers covers the on-line quiet-window staging
// path, whose release timers also live in the delayed map.
func TestRemoveTopicQuietWindowTimers(t *testing.T) {
	f := newFixture(t, TopicConfig{
		Name:  "t",
		Mode:  msg.OnLine,
		Quiet: []QuietWindow{{Start: 0, End: 23 * time.Hour}},
	})
	f.proxy.SetNetwork(true)
	f.proxy.Notify(f.note("q1", 5, 0))
	f.proxy.Notify(f.note("q2", 5, time.Hour))
	if f.sched.Pending() == 0 {
		t.Fatal("expected quiet-window timers before removal")
	}
	if err := f.proxy.RemoveTopic("t"); err != nil {
		t.Fatalf("RemoveTopic: %v", err)
	}
	if got := f.sched.Pending(); got != 0 {
		t.Fatalf("quiet-window timers leaked: %d still pending", got)
	}
}

// TestLateTimeoutAfterRemoveTopicIsNoop simulates the wall-clock race: a
// timer callback that already fired past its own state check before Cancel
// still runs after the topic is gone. With the timer maps cleared, every
// timeout handler must be a no-op on the stale topicState.
func TestLateTimeoutAfterRemoveTopicIsNoop(t *testing.T) {
	f := newFixture(t, TopicConfig{
		Name:     "t",
		Mode:     msg.OnDemand,
		Policy:   Buffer,
		ReadSize: 4,
		Delay:    time.Minute,
	})
	f.proxy.Notify(f.note("x", 5, time.Hour))
	ts := f.proxy.topics["t"]
	if ts == nil {
		t.Fatal("topic state missing")
	}
	if err := f.proxy.RemoveTopic("t"); err != nil {
		t.Fatalf("RemoveTopic: %v", err)
	}
	before := f.proxy.Stats()

	// Late fires against the removed topic's state.
	f.proxy.delayTimeout(ts, "x")
	f.proxy.quietTimeout(ts, "x")
	f.proxy.expiryTimeout(ts)

	if ts.queues[inPrefetch].Len() != 0 || ts.queues[inOutgoing].Len() != 0 {
		t.Fatalf("late timeout mutated removed topic: prefetch=%d outgoing=%d",
			ts.queues[inPrefetch].Len(), ts.queues[inOutgoing].Len())
	}
	if after := f.proxy.Stats(); after != before {
		t.Fatalf("late timeout changed stats: %+v -> %+v", before, after)
	}
	if len(f.dev.received) != 0 {
		t.Fatalf("late timeout forwarded %d notifications", len(f.dev.received))
	}
}
