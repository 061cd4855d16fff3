package wire

import (
	"fmt"
	"net"
	"testing"

	"lasthop/internal/msg"
)

// rawDevice speaks the device protocol over a bare Conn so tests control
// exactly which capabilities the hello advertises.
type rawDevice struct {
	conn *Conn
}

func dialRawDevice(t *testing.T, addr string, caps []string) *rawDevice {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	t.Cleanup(func() { _ = conn.Close() })
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: "raw-device", Caps: caps}, nil); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return &rawDevice{conn: conn}
}

func (d *rawDevice) subscribe(t *testing.T, topic string, pol TopicPolicy) {
	t.Helper()
	if err := syncExchange(d.conn, &Frame{Type: TypeSubscribe, Topic: topic, TopicPolicy: &pol}, nil); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
}

// read issues one §3.5 READ and returns how the transferred burst was
// framed: single-push frames, batch frames, and total notifications.
func (d *rawDevice) read(t *testing.T, topic string, n int) (singles, batches, total int) {
	t.Helper()
	seq, err := d.conn.SendRequest(&Frame{Type: TypeRead, Read: &msg.ReadRequest{Topic: topic, N: n}})
	if err != nil {
		t.Fatalf("read request: %v", err)
	}
	for {
		f, err := d.conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch {
		case f.Re == seq && f.Type == TypeErr:
			t.Fatalf("read rejected: %s %s", f.Code, f.Message)
		case f.Re == seq && f.Type == TypeOK:
			return singles, batches, total
		case f.Type == TypePush:
			singles++
			total++
		case f.Type == TypePushBatch:
			batches++
			total += len(f.Batch)
		}
	}
}

// publishBurst spools count notifications on the proxy's topic.
func publishBurst(t *testing.T, h *harness, topic string, count int) {
	t.Helper()
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise(topic, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("b%02d", i)), topic, float64(1+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "proxy spool", func() bool {
		snap, ok := h.proxy.Snapshot(topic)
		return ok && snap.Prefetch == count
	})
}

// TestReadBurstArrivesBatched: a device that negotiated push-batch gets an
// on-demand READ burst coalesced into batch frames, not n single pushes.
func TestReadBurstArrivesBatched(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr, LocalCaps())
	dev.subscribe(t, "news", TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 10)

	singles, batches, total := dev.read(t, "news", 0)
	if total != 10 {
		t.Fatalf("read transferred %d notifications, want 10", total)
	}
	if batches == 0 {
		t.Errorf("burst arrived without any push-batch frame (%d singles)", singles)
	}
	if singles != 0 {
		t.Errorf("burst used %d single pushes alongside %d batches", singles, batches)
	}
}

// TestLegacyDeviceGetsSinglePushes: a hello without the push-batch
// capability must make the proxy fall back to one push frame per
// notification, so old devices keep working.
func TestLegacyDeviceGetsSinglePushes(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr, nil)
	dev.subscribe(t, "news", TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 10)

	singles, batches, total := dev.read(t, "news", 0)
	if total != 10 {
		t.Fatalf("read transferred %d notifications, want 10", total)
	}
	if batches != 0 {
		t.Errorf("legacy device received %d push-batch frames", batches)
	}
	if singles != 10 {
		t.Errorf("legacy device received %d single pushes, want 10", singles)
	}
}
