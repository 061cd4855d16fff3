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
	q, read, stats := ts.q, ts.consumed, d.Stats()

	// 1. Storage bound respected.
	if d.cfg.Capacity > 0 && q.Len() > d.cfg.Capacity {
		t.Fatalf("step %d: queue %d exceeds capacity %d", step, q.Len(), d.cfg.Capacity)
	}
	// 2. Consumed notifications never linger in the queue.
	q.Each(func(n *msg.Notification) {
		if read.Contains(n.ID) {
			t.Fatalf("step %d: consumed %s still queued", step, n.ID)
		}
		// 3. Below-threshold content is never stored.
		if n.Rank < d.cfg.RankThreshold {
			t.Fatalf("step %d: below-threshold %s stored", step, n.ID)
		}
	})
	// 4. Battery never exceeds its budget by more than one drain.
	if d.cfg.BatteryCapacity > 0 && stats.BatteryUsed > d.cfg.BatteryCapacity+d.cfg.ReceiveCost {
		t.Fatalf("step %d: battery overdrawn: %v / %v", step, stats.BatteryUsed, d.cfg.BatteryCapacity)
	}
	// 5. Counters are consistent: everything received was read, expired,
	// evicted, dropped, or is still queued.
	total := stats.ReadCount + stats.ExpiredUnread + stats.EvictedStorage +
		stats.RankDropsApplied + q.Len()
	if total < stats.Received {
		t.Fatalf("step %d: accounting leak: received %d > accounted %d", step, stats.Received, total)
	}
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
