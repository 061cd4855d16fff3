package device

// Property tests: drive the device with random receives, reads, rank
// signals, and link flaps, and check its structural invariants after every
// step.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

func checkDeviceInvariants(t *testing.T, d *Device, topic string, step int) {
	t.Helper()
	ts := d.store.topics[topic]
	if ts == nil {
		return
	}
	held, stats := ts.held.Len(), d.Stats()
	if err := checkTable(ts); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}

	// 1. Storage bound respected.
	if d.cfg.Capacity > 0 && held > d.cfg.Capacity {
		t.Fatalf("step %d: queue %d exceeds capacity %d", step, held, d.cfg.Capacity)
	}
	for _, sl := range ts.arena.Slots {
		n := sl.N
		if n == nil {
			continue
		}
		// 2. Consumed notifications never linger in the queue.
		if ts.ids[n.ID]&consumedBit != 0 {
			t.Fatalf("step %d: consumed %s still queued", step, n.ID)
		}
		// 3. Below-threshold content is never stored.
		if n.Rank < d.cfg.RankThreshold {
			t.Fatalf("step %d: below-threshold %s stored", step, n.ID)
		}
	}
	// 4. Battery never exceeds its budget by more than one drain.
	if d.cfg.BatteryCapacity > 0 && stats.BatteryUsed > d.cfg.BatteryCapacity+d.cfg.ReceiveCost {
		t.Fatalf("step %d: battery overdrawn: %v / %v", step, stats.BatteryUsed, d.cfg.BatteryCapacity)
	}
	// 5. Counters are consistent: everything received was read, expired,
	// evicted, dropped, or is still queued.
	total := stats.ReadCount + stats.ExpiredUnread + stats.EvictedStorage +
		stats.RankDropsApplied + held
	if total < stats.Received {
		t.Fatalf("step %d: accounting leak: received %d > accounted %d", step, stats.Received, total)
	}
}

// checkTable checks a topic's one table: a held cell's handle names the
// slot holding its notification and no free slot holds one; the rank heap
// holds exactly the held handles and the expiry heap exactly those with a
// lifetime; the ring fits 2×history, lists distinct IDs and exactly the
// cells with the window bit; the consumed count matches the consumed
// cells, none of them held and, on a topic configured before its first
// push, none outside the window.
func checkTable(t *topicStore) error {
	held, expiring, inWindow, consumed := 0, 0, 0, 0
	for id, c := range t.ids {
		switch {
		case c == 0:
			return fmt.Errorf("%s keeps an empty cell", id)
		case c.held() && c&consumedBit != 0:
			return fmt.Errorf("%s is held and consumed", id)
		case t.windowed && c&consumedBit != 0 && c&windowBit == 0:
			return fmt.Errorf("consumed %s sits outside the window", id)
		}
		if c.held() {
			h := c.handle()
			if int(h) >= len(t.arena.Slots) || t.arena.Slots[h].N == nil || t.arena.Slots[h].N.ID != id {
				return fmt.Errorf("%s indexed at handle %d, which does not hold it", id, h)
			}
			held++
			if !t.arena.Slots[h].N.NeverExpires() {
				expiring++
			}
		}
		if c&windowBit != 0 {
			inWindow++
		}
		if c&consumedBit != 0 {
			consumed++
		}
	}
	slots := 0
	for _, sl := range t.arena.Slots {
		if sl.N != nil {
			slots++
		}
	}
	ranked := t.held.AppendBest(nil, t.held.Len())
	if slots != held || len(ranked) != held {
		return fmt.Errorf("%d held cells, %d slots hold a notification, the rank heap holds %d", held, slots, len(ranked))
	}
	for _, h := range ranked {
		if n := t.arena.Slots[h].N; n == nil || t.ids[n.ID].handle() != h {
			return fmt.Errorf("the rank heap holds handle %d, not held under its ID", h)
		}
	}
	due := t.exp.IDs()
	if len(due) != expiring {
		return fmt.Errorf("the expiry heap holds %d, %d held notifications expire", len(due), expiring)
	}
	for _, id := range due {
		if !t.ids[id].held() {
			return fmt.Errorf("the expiry heap holds %s, which is not held", id)
		}
	}
	if limit := 2 * t.history; t.windowed && limit > 0 && len(t.window) > limit || !t.windowed && len(t.window) > 0 {
		return fmt.Errorf("a window of %d IDs, history %d (configured %v)", len(t.window), t.history, t.windowed)
	}
	seen := make(msg.IDSet, len(t.window))
	for _, id := range t.window {
		if !seen.Add(id) || t.ids[id]&windowBit == 0 {
			return fmt.Errorf("%s sits in the ring twice or without its window bit", id)
		}
	}
	if inWindow != len(t.window) {
		return fmt.Errorf("%d cells carry the window bit, the ring holds %d", inWindow, len(t.window))
	}
	if consumed != t.consumed {
		return fmt.Errorf("%d consumed cells, counted %d", consumed, t.consumed)
	}
	return nil
}

func TestDeviceInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := simtime.NewVirtual(t0)
		lnk := link.New(clock, true)
		backend := &fakeBackend{}
		cfg := Config{RankThreshold: 2}
		if seed%2 == 0 {
			cfg.Capacity = 8
		}
		if seed%3 == 0 {
			cfg.BatteryCapacity = 200
		}
		dev := New(clock, lnk, backend, cfg)
		backend.dev = dev

		next := 0
		for step := 0; step < 500; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // receive
				id := msg.ID(fmt.Sprintf("r%04d", next))
				next++
				n := &msg.Notification{
					ID: id, Topic: "t",
					Rank:      float64(rng.Intn(60)) / 10,
					Published: clock.Now(),
				}
				if rng.Intn(3) == 0 {
					n.Expires = clock.Now().Add(time.Duration(1+rng.Intn(7200)) * time.Second)
				}
				_ = dev.Receive(n) // ErrDown / ErrBatteryDead are legitimate
			case 5: // rank signal for a random earlier notification
				if next > 0 {
					id := msg.ID(fmt.Sprintf("r%04d", rng.Intn(next)))
					_ = dev.Receive(&msg.Notification{
						ID: id, Topic: "t",
						Rank:      float64(rng.Intn(60)) / 10,
						Published: clock.Now(),
					})
				}
			case 6, 7: // user read
				_, _ = dev.Read("t", rng.Intn(6))
			case 8: // link flap
				lnk.SetUp(rng.Intn(2) == 0)
			case 9: // time passes
				clock.Advance(time.Duration(rng.Intn(1800)) * time.Second)
			}
			checkDeviceInvariants(t, dev, "t", step)
		}
	}
}
