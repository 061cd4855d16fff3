package core

// White-box property tests: drive the proxy with random operation
// sequences and check the structural invariants of Figure 7's queue
// discipline after every step.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/rankedq"
	"lasthop/internal/simtime"
)

// checkInvariants asserts the proxy's structural invariants for a topic.
func checkInvariants(t *testing.T, p *Proxy, topic string, step int) {
	t.Helper()
	ts, ok := p.topics[topic]
	if !ok {
		t.Fatalf("step %d: topic state missing", step)
	}
	now := p.sched.Now()

	// 0. The table: the ring holds len(ids) handles, no more than the
	// history limit; every slot holds a notification indexed under its
	// handle; the capacity past the ring is zeroed; and the counts kept
	// beside the entries agree with them.
	if len(ts.slots) != len(ts.ids) || len(ts.ents) != len(ts.slots) {
		t.Fatalf("step %d: %d slots and %d entries for %d IDs", step, len(ts.slots), len(ts.ents), len(ts.ids))
	}
	if limit := ts.cfg.HistoryLimit; limit > 0 && (len(ts.slots) > limit || ts.head != 0 && len(ts.slots) < limit) {
		t.Fatalf("step %d: ring of %d with head %d under limit %d", step, len(ts.slots), ts.head, limit)
	}
	for h, s := range ts.slots {
		if s.N == nil || ts.ids[s.N.ID] != int32(h) {
			t.Fatalf("step %d: slot %d holds %v, not indexed under it", step, h, s.N)
		}
	}
	for h, s := range ts.slots[len(ts.slots):cap(ts.slots)] {
		if s != (rankedq.Slot{}) {
			t.Fatalf("step %d: free slot %d not zeroed", step, len(ts.slots)+h)
		}
	}
	for h, e := range ts.ents[len(ts.ents):cap(ts.ents)] {
		if e != (entry{}) {
			t.Fatalf("step %d: free entry %d not zeroed: %+v", step, len(ts.ents)+h, e)
		}
	}
	forwarded, armed, delayed := 0, 0, 0
	for _, e := range ts.ents {
		if e.fwd {
			forwarded++
		}
		if e.armed {
			armed++
		}
		if e.at == inDelay {
			delayed++
		}
		if e.client {
			t.Fatalf("step %d: client mark left behind", step)
		}
	}
	if forwarded != ts.forwarded || armed != ts.expiry.Len() || delayed != len(ts.delays) {
		t.Fatalf("step %d: %d forwarded (count %d), %d armed (heap %d), %d delayed (timers %d)",
			step, forwarded, ts.forwarded, armed, ts.expiry.Len(), delayed, len(ts.delays))
	}

	// 1. Each entry's stage matches the heap that holds its handle, so
	// the three queues are pairwise disjoint.
	queued := map[stage][]int32{}
	for _, s := range []stage{inOutgoing, inPrefetch, inHolding} {
		q := &ts.queues[s]
		queued[s] = q.AppendBest(nil, q.Len())
		n := 0
		for _, e := range ts.ents {
			if e.at == s {
				n++
			}
		}
		if n != q.Len() {
			t.Fatalf("step %d: %d entries in %s, heap holds %d", step, n, stageNames[s], q.Len())
		}
		for _, h := range queued[s] {
			if ts.ents[h].at != s {
				t.Fatalf("step %d: %s heap holds %s, which is in %q", step, stageNames[s], ts.slots[h].N.ID, stageNames[ts.ents[h].at])
			}
		}
	}

	// 2. Delayed events are in no queue.
	for h := range ts.delays {
		if ts.ents[h].at != inDelay {
			t.Fatalf("step %d: delayed event %s is in %q", step, ts.slots[h].N.ID, stageNames[ts.ents[h].at])
		}
	}

	// 3. No expired event sits in any queue (expiry timers are exact in
	// virtual time).
	for _, hs := range queued {
		for _, h := range hs {
			if ts.slots[h].N.Expired(now) {
				t.Fatalf("step %d: expired event %s still queued", step, ts.slots[h].N.ID)
			}
		}
	}

	// 4. Forwarded events never sit in prefetch or holding (outgoing is
	// allowed: rank-revision signals).
	for h, e := range ts.ents {
		if e.fwd && (e.at == inPrefetch || e.at == inHolding) {
			t.Fatalf("step %d: forwarded event %s still prefetchable", step, ts.slots[h].N.ID)
		}
	}

	// 5. Every queued event is remembered by the history: its handle
	// indexes a live slot.
	for _, hs := range queued {
		for _, h := range hs {
			if int(h) >= len(ts.slots) {
				t.Fatalf("step %d: queued handle %d past a ring of %d", step, h, len(ts.slots))
			}
		}
	}

	// 6. Below-threshold events are never queued for prefetch; holding
	// and prefetch entries all meet the rank threshold.
	for _, s := range []stage{inPrefetch, inHolding} {
		for _, h := range queued[s] {
			if ts.slots[h].N.Rank < ts.cfg.RankThreshold {
				t.Fatalf("step %d: below-threshold event %s queued", step, ts.slots[h].N.ID)
			}
		}
	}

	// 7. The queue-size view never goes negative.
	if ts.queueSize < 0 {
		t.Fatalf("step %d: negative queue view %d", step, ts.queueSize)
	}

	// 8. The network gate: with the network up and the Buffer policy,
	// the prefetch queue only retains events when the view is at the
	// limit (otherwise try_forwarding would have drained more).
	if p.networkUp && ts.cfg.Policy == Buffer && ts.queues[inPrefetch].Len() > 0 && ts.queueSize < ts.prefetchLimit {
		t.Fatalf("step %d: prefetch stalled with room (view %d < limit %d, %d queued)",
			step, ts.queueSize, ts.prefetchLimit, ts.queues[inPrefetch].Len())
	}
	// 9. With the network up the outgoing queue is always drained.
	if p.networkUp && ts.queues[inOutgoing].Len() > 0 {
		t.Fatalf("step %d: outgoing not drained while network up", step)
	}
}

// applyRandomOp drives one random proxy input, returning the device's
// notion of its queue so reads can be plausible.
func applyRandomOp(t *testing.T, rng *rand.Rand, clock *simtime.Virtual, p *Proxy, dev *fakeDevice, next *int) {
	t.Helper()
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // arrival
		id := msg.ID(fmt.Sprintf("p%04d", *next))
		*next++
		n := &msg.Notification{
			ID: id, Topic: "t",
			Rank:      float64(rng.Intn(100)) / 10,
			Published: clock.Now(),
		}
		if rng.Intn(2) == 0 {
			n.Expires = clock.Now().Add(time.Duration(1+rng.Intn(5000)) * time.Second)
		}
		p.Notify(n)
	case 4: // rank revision of a random known event
		if *next > 0 {
			id := msg.ID(fmt.Sprintf("p%04d", rng.Intn(*next)))
			p.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: id, NewRank: float64(rng.Intn(100)) / 10})
		}
	case 5: // network flap
		p.SetNetwork(rng.Intn(2) == 0)
	case 6, 7: // device read with a plausible request
		have := len(dev.received)
		if have > 8 {
			have = 8
		}
		events := make([]msg.ID, 0, have)
		for _, n := range dev.received[len(dev.received)-have:] {
			events = append(events, n.ID)
		}
		req := msg.ReadRequest{Topic: "t", N: 8, QueueSize: len(events), ClientEvents: events}
		if err := p.Read(req); err != nil {
			t.Fatalf("read: %v", err)
		}
	case 8, 9: // time passes (expiry and delay timers fire)
		clock.Advance(time.Duration(rng.Intn(3600)) * time.Second)
	}
}

func TestProxyInvariantsUnderRandomOps(t *testing.T) {
	configs := map[string]TopicConfig{
		"online":    OnlineConfig("t"),
		"on-demand": OnDemandConfig("t", 8),
		"buffer":    BufferConfig("t", 8, 16),
		"rate":      RateConfig("t", 8),
		"unified":   UnifiedConfig("t", 8),
		"unified-threshold-delay": func() TopicConfig {
			cfg := UnifiedConfig("t", 8)
			cfg.RankThreshold = 3
			cfg.Delay = 5 * time.Minute
			return cfg
		}(),
		"buffer-short-history": func() TopicConfig {
			cfg := BufferConfig("t", 8, 16)
			cfg.HistoryLimit = 16
			cfg.RankThreshold = 3
			return cfg
		}(),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				clock := newTestClock(t0)
				dev := &fakeDevice{}
				p := New(clock, dev)
				if err := p.AddTopic(cfg); err != nil {
					t.Fatal(err)
				}
				next := 0
				for step := 0; step < 400; step++ {
					applyRandomOp(t, rng, clock, p, dev, &next)
					checkInvariants(t, p, "t", step)
				}
			}
		})
	}
}

// TestProxyInvariantsWithFailingDevice injects forward failures into the
// random workload; the invariants must hold through requeues and
// network-down transitions.
func TestProxyInvariantsWithFailingDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clock := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(clock, dev)
	if err := p.AddTopic(BufferConfig("t", 8, 16)); err != nil {
		t.Fatal(err)
	}
	next := 0
	for step := 0; step < 600; step++ {
		dev.fail = rng.Intn(5) == 0
		applyRandomOp(t, rng, clock, p, dev, &next)
		dev.fail = false
		// Invariants 8/9 assume forwarding succeeded; re-kick the
		// network to restore the drained state before checking.
		if p.NetworkUp() {
			p.SetNetwork(true)
		}
		checkInvariants(t, p, "t", step)
	}
}
