package wire

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

type noBackend struct{}

func (noBackend) Read(msg.ReadRequest) error { return nil }

func noteIDs(batch []*msg.Notification) string {
	ids := make([]string, len(batch))
	for i, n := range batch {
		ids[i] = fmt.Sprintf("%s@%v", n.ID, n.Rank)
	}
	return strings.Join(ids, " ")
}

// TestDeviceShellsAgree drives the simulator's device.Device and the live
// DeviceClient — the two shells over device.Store — with one seeded
// sequence of pushes, rank revisions, below-threshold retractions, expiries
// and reads, and requires the same reads, queue contents and counters from
// both after every step. The live client talks to a real proxy that has
// nothing to add (no publisher), and runs on the simulator's clock.
func TestDeviceShellsAgree(t *testing.T) {
	const (
		topic     = "t"
		threshold = 2
	)
	h := newHarness(t)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := simtime.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		sim := device.New(clock, link.New(clock, true), noBackend{}, device.Config{RankThreshold: threshold})
		live, err := DialProxy(h.proxyAddr, fmt.Sprintf("phone-%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		live.smu.Lock()
		live.now = clock.Now
		live.smu.Unlock()
		if err := live.Subscribe(topic, TopicPolicy{Policy: "on-demand", Threshold: threshold}); err != nil {
			t.Fatal(err)
		}
		push := func(n *msg.Notification) {
			if err := sim.Receive(n.Clone()); err != nil {
				t.Fatal(err)
			}
			live.storeAndNotify(n.Clone())
		}

		next := 0
		for step := 0; step < 600; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // first push, sometimes short-lived or dead on arrival
				n := &msg.Notification{
					ID: msg.ID(fmt.Sprintf("n%04d", next)), Topic: topic,
					Rank: float64(rng.Intn(60)) / 10, Published: clock.Now(),
				}
				next++
				if rng.Intn(3) == 0 {
					n.Expires = clock.Now().Add(time.Duration(rng.Intn(3600)-300) * time.Second)
				}
				push(n)
			case 4, 5: // revision of an earlier ID; below the threshold it retracts
				if next > 0 {
					push(&msg.Notification{
						ID: msg.ID(fmt.Sprintf("n%04d", rng.Intn(next))), Topic: topic,
						Rank: float64(rng.Intn(60)) / 10, Published: clock.Now(),
					})
				}
			case 6, 7: // Read(n), and Read(0) for everything
				n := rng.Intn(4)
				want, err := sim.Read(topic, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := live.Read(topic, n)
				if err != nil {
					t.Fatal(err)
				}
				if noteIDs(got) != noteIDs(want) {
					t.Fatalf("seed %d step %d: Read(%d) = [%s] live, [%s] simulated", seed, step, n, noteIDs(got), noteIDs(want))
				}
			case 8, 9:
				clock.Advance(time.Duration(rng.Intn(1200)) * time.Second)
			}

			want := sim.Peek(topic, 0) // drops what expired, as the next read would
			live.smu.Lock()
			live.expireLocked(topic)
			got := live.store.Peek(topic, 0)
			counters := live.store.Stats
			live.smu.Unlock()
			if noteIDs(got) != noteIDs(want) {
				t.Fatalf("seed %d step %d: queue = [%s] live, [%s] simulated", seed, step, noteIDs(got), noteIDs(want))
			}
			st := sim.Stats()
			st.RequestsSent, st.BatteryUsed = 0, 0 // the simulated device's link and battery are counted there too
			if counters != st {
				t.Fatalf("seed %d step %d: counters = %+v live, %+v simulated", seed, step, counters, st)
			}
			if r, u, d := live.Stats(); r != st.Received || u != st.Updates || d != st.RankDropsApplied {
				t.Fatalf("seed %d step %d: Stats() = %d/%d/%d live, %+v simulated", seed, step, r, u, d, st)
			}
		}
		got, want := live.ReadSet(topic), sim.ReadSet(topic)
		if got.Len() == 0 || got.Len() != want.Len() || got.Diff(want).Len() != 0 {
			t.Fatalf("seed %d: read sets differ: %d live, %d simulated", seed, got.Len(), want.Len())
		}
	}
}

// TestResumeListsFitAFrame reconnects a device that has read 200 000
// notifications on each of two topics. Replaying every consumed ID, as the
// client once did, needs a 3 MB resume frame and the session can never come
// back; the store replays at most the proxy's history bound, and what still
// does not fit one frame is cut and costs at most a deduplicated re-forward.
func TestResumeListsFitAFrame(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	topics := []string{"bounded", "default"}
	for _, topic := range topics {
		if err := pub.Advertise(topic, ""); err != nil {
			t.Fatal(err)
		}
	}

	var (
		logMu sync.Mutex
		cuts  []string
	)
	opts := chaosClientOptions(t)
	// The handshake's deadlines have to cover a 1 MB resume frame decoded by
	// a proxy under the race detector, not the chaos suite's 150 ms.
	opts.DialTimeout = 5 * time.Second
	opts.HeartbeatInterval = time.Second
	opts.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "do not fit a frame") {
			logMu.Lock()
			cuts = append(cuts, line)
			logMu.Unlock()
		}
		t.Log(line)
	}
	dev, err := DialProxyOpts(h.proxyAddr, "phone", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	var delivered atomic.Int32
	dev.SetOnPush(func(*msg.Notification) { delivered.Add(1) })
	if err := dev.Subscribe("bounded", TopicPolicy{Policy: "online", HistoryLimit: 64}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe("default", TopicPolicy{Policy: "online"}); err != nil {
		t.Fatal(err)
	}

	const consumed = 200000
	dev.smu.Lock()
	now := time.Now()
	for _, topic := range topics {
		for i := 0; i < consumed; i++ {
			id := msg.ID(fmt.Sprintf("%s-%06d", topic, i)) // 14 bytes
			dev.store.Accept(&msg.Notification{ID: id, Topic: topic, Rank: 1, Published: now}, now)
			if i%1000 == 999 {
				dev.store.Take(topic, 0)
			}
		}
	}
	dev.smu.Unlock()
	if got := dev.ReadSet("bounded").Len(); got != 2*64 {
		t.Fatalf("bounded topic remembers %d consumed IDs, want the 128-receipt window", got)
	}
	if got := dev.ReadSet("default").Len(); got != consumed {
		t.Fatalf("default topic remembers %d consumed IDs, want all %d", got, consumed)
	}

	_ = dev.currentConn().Close()
	waitFor(t, "session resumption", func() bool { return dev.Reconnects() >= 1 })
	logMu.Lock()
	if len(cuts) != 1 || !strings.Contains(cuts[0], `"default"`) {
		t.Errorf("want one cut logged, for the default topic; got %q", cuts)
	}
	logMu.Unlock()

	for _, topic := range topics {
		if err := pub.Publish(wireNote(msg.ID(topic+"-fresh"), topic, 3)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "fresh publishes after the resume", func() bool { return delivered.Load() == 2 })
	for _, topic := range topics {
		batch, err := dev.Read(topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != 1 || batch[0].ID != msg.ID(topic+"-fresh") {
			t.Errorf("%s: read [%s] after the resume, want the fresh publish alone", topic, noteIDs(batch))
		}
	}
	if received, updates, _ := dev.Stats(); received != 2*consumed+2 || updates != 0 || delivered.Load() != 2 {
		t.Errorf("received %d (want %d), updates %d, OnPush calls %d: the fresh publishes were not delivered exactly once",
			received, 2*consumed+2, updates, delivered.Load())
	}
}
