package wire

import (
	"fmt"
	"net"
	"testing"
	"time"

	"lasthop/internal/faultnet"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/retry"
)

// chaosN is the publish volume of the chaos scenario.
const chaosN = 200

// chaosResult is what one scenario run delivered to the user.
type chaosResult struct {
	reads      map[msg.ID]int
	reconnects int
}

// chaosClientOptions is the fault-tolerant device configuration used by
// the chaos runs: fast backoff and heartbeats so the test converges in
// seconds rather than the minutes a production schedule would take.
func chaosClientOptions(t *testing.T) ClientOptions {
	return ClientOptions{
		AutoReconnect:     true,
		Backoff:           retry.Policy{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1},
		HeartbeatInterval: 50 * time.Millisecond, // derives a 150ms read deadline
		WriteTimeout:      time.Second,
		DialTimeout:       300 * time.Millisecond,
		Logf:              t.Logf,
	}
}

// runChaosScenario publishes chaosN notifications through a broker and
// proxy while a device reads them across a fault-injected last hop, and
// returns the set of notifications the user ended up reading. The same
// schedule runs fault-free when chaotic is false.
func runChaosScenario(t *testing.T, chaotic bool) chaosResult {
	t.Helper()
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("chaos-broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()

	ps, err := NewProxyServerOpts(ProxyOptions{
		BrokerAddr:         bl.Addr().String(),
		Name:               "chaos-proxy",
		DeviceWriteTimeout: 500 * time.Millisecond,
		Logf:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rawLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The fault injector sits on the device-facing listener: the last hop
	// is where the paper locates the volatility.
	flis := faultnet.Wrap(rawLis, faultnet.Options{Seed: 7})
	go func() { _ = ps.Serve(flis) }()

	pub, err := DialBroker(bl.Addr().String(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	opts := chaosClientOptions(t)
	if !chaotic {
		// The fault-free run must not reconnect at all, and has no fault to
		// detect: with the chaos suite's 150 ms read deadline that assertion
		// measures how long a busy box can starve the pinger.
		opts.HeartbeatInterval = time.Second
	}
	dev, err := DialProxyOpts(flis.Addr().String(), "phone", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", PrefetchLimit: chaosN * 2}); err != nil {
		t.Fatal(err)
	}

	pubDone := make(chan error, 1)
	go func() {
		for i := 0; i < chaosN; i++ {
			n := wireNote(msg.ID(fmt.Sprintf("c%03d", i)), "news", float64(i%17))
			if err := pub.Publish(n); err != nil {
				pubDone <- fmt.Errorf("publish %s: %w", n.ID, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		pubDone <- nil
	}()

	var faultsDone chan struct{}
	if chaotic {
		faultsDone = make(chan struct{})
		go func() {
			defer close(faultsDone)
			// Three mid-stream connection drops while the publish run is
			// in flight; each loop turn waits until a live connection was
			// actually severed.
			cuts := 0
			for cuts < 3 {
				time.Sleep(100 * time.Millisecond)
				cuts += flis.CutAll()
			}
			time.Sleep(100 * time.Millisecond)
			// Then a 2-second one-way partition: proxy-to-device bytes
			// stall without failing — the half-open hang only the
			// heartbeat deadline detects.
			flis.Partition(faultnet.Outbound, 2*time.Second)
		}()
	}

	reads := make(map[msg.ID]int)
	deadline := time.Now().Add(30 * time.Second)
	for len(reads) < chaosN && time.Now().Before(deadline) {
		batch, err := dev.Read("news", 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, n := range batch {
			reads[n.ID]++
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	if faultsDone != nil {
		<-faultsDone
		st := flis.Stats()
		if st.Cut < 3 || st.Partitions < 1 {
			t.Fatalf("fault schedule incomplete: %+v", st)
		}
	}
	return chaosResult{reads: reads, reconnects: dev.Reconnects()}
}

// TestChaosDeviceConvergesUnderFaults runs the acceptance scenario: a
// 200-notification publish run with three connection cuts and a 2s
// one-way partition on the last hop must leave the user having read
// exactly the same notification set as a fault-free run — nothing lost,
// nothing duplicated.
func TestChaosDeviceConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario sleeps through a 2s partition")
	}
	clean := runChaosScenario(t, false)
	faulty := runChaosScenario(t, true)

	for name, res := range map[string]chaosResult{"clean": clean, "faulty": faulty} {
		if len(res.reads) != chaosN {
			t.Fatalf("%s run: read %d distinct notifications, want %d", name, len(res.reads), chaosN)
		}
		for id, c := range res.reads {
			if c != 1 {
				t.Errorf("%s run: %s read %d times", name, id, c)
			}
		}
	}
	for id := range clean.reads {
		if _, ok := faulty.reads[id]; !ok {
			t.Errorf("faulty run never delivered %s", id)
		}
	}
	if faulty.reconnects < 3 {
		t.Errorf("faulty run resumed %d times, want at least 3 (one per cut)", faulty.reconnects)
	}
	if clean.reconnects != 0 {
		t.Errorf("clean run reconnected %d times", clean.reconnects)
	}
}

// TestDeviceAutoReconnectResumesSession covers the focused resume path
// without the full chaos schedule: one server-side connection loss, then
// pushes keep flowing on the resumed session.
func TestDeviceAutoReconnectResumesSession(t *testing.T) {
	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}
	dev, err := DialProxyOpts(h.proxyAddr, "phone", chaosClientOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4, PrefetchLimit: 10}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("before", "news", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prefetch before loss", func() bool { return dev.QueueLen("news") == 1 })

	// The radio drops.
	_ = dev.currentConn().Close()
	waitFor(t, "session resumption", func() bool { return dev.Reconnects() >= 1 })

	if err := pub.Publish(wireNote("after", "news", 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push after resume", func() bool { return dev.QueueLen("news") == 2 })

	batch, err := dev.Read("news", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("read %d after resume, want 2", len(batch))
	}
	// The proxy kept the session across the disconnect.
	sessions := h.proxy.Sessions()
	if len(sessions) != 1 || sessions[0].Name != "phone" || sessions[0].Connects < 2 {
		t.Errorf("sessions = %+v, want phone with >= 2 connects", sessions)
	}
}
