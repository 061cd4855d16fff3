package wire

import (
	"fmt"
	"net"
	"testing"

	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// rawDevice speaks the device protocol over a bare Conn so tests see
// exactly how the proxy frames what it pushes.
type rawDevice struct {
	conn *Conn
}

func dialRawDevice(t *testing.T, addr string) *rawDevice {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	t.Cleanup(func() { _ = conn.Close() })
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: "raw-device"}, nil); err != nil {
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

// TestReadBurstArrivesBatched: a device gets an on-demand READ burst
// coalesced into batch frames, not n single pushes.
func TestReadBurstArrivesBatched(t *testing.T) {
	h := newHarness(t)
	dev := dialRawDevice(t, h.proxyAddr)
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

// TestRecoveredProxyReadArrivesBatched: a device reconnecting to a proxy
// recovered from its journal gets its backlog in one push-batch frame. The
// journal's replay muter used to offer only a per-notification forward, so
// a recovered proxy sent one push frame per notification.
func TestRecoveredProxyReadArrivesBatched(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	journalPath := t.TempDir() + "/proxy.journal"
	pub, err := DialBroker(bl.Addr().String(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("news", ""); err != nil {
		t.Fatal(err)
	}

	// First life: an on-demand backlog of three, then a crash.
	ps1, addr1 := startDurableProxy(t, bl.Addr().String(), journalPath)
	dialRawDevice(t, addr1).subscribe(t, "news", TopicPolicy{Policy: "on-demand", Max: 64})
	for i := 0; i < 3; i++ {
		if err := pub.Publish(wireNote(msg.ID(fmt.Sprintf("r%d", i)), "news", float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "backlog", func() bool {
		snap, ok := ps1.Snapshot("news")
		return ok && snap.Prefetch == 3
	})
	ps1.Close()

	// Second life: the device reconnects and reads the recovered backlog.
	ps2, addr2 := startDurableProxy(t, bl.Addr().String(), journalPath)
	defer ps2.Close()
	singles, batches, total := dialRawDevice(t, addr2).read(t, "news", 0)
	if total != 3 || batches != 1 || singles != 0 {
		t.Errorf("recovered backlog arrived as %d notifications in %d push-batch and %d push frames, want 3 in one push-batch",
			total, batches, singles)
	}
}
