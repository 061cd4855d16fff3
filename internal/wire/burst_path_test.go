package wire

import (
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// connPair returns two wire Conns over a real TCP loopback socket.
func connPair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := lis.Accept()
		ch <- res{c, err}
	}()
	cc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		_ = cc.Close()
		t.Fatal(r.err)
	}
	client, server := NewConn(cc), NewConn(r.c)
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

// TestIdleConnNoFlushes pins the flusher's parking behavior: a connection
// with nothing queued performs no flush syscalls at all — no idle-timer
// wakeups — and a sent frame costs exactly one flush, after which the
// flusher parks again.
func TestIdleConnNoFlushes(t *testing.T) {
	client, server := connPair(t)

	// Never-written connections stay at zero flushes.
	time.Sleep(250 * time.Millisecond)
	if got := client.Flushes(); got != 0 {
		t.Errorf("idle client performed %d flushes, want 0", got)
	}
	if got := server.Flushes(); got != 0 {
		t.Errorf("idle server performed %d flushes, want 0", got)
	}

	// One buffered send wakes the flusher exactly once…
	if err := client.Send(&Frame{Type: TypePing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for client.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sent frame never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if f, err := server.Recv(); err != nil || f.Type != TypePing {
		t.Fatalf("Recv = %+v, %v", f, err)
	}

	// …and the connection goes back to full idle: no further flushes.
	flushed := client.Flushes()
	time.Sleep(250 * time.Millisecond)
	if got := client.Flushes(); got != flushed {
		t.Errorf("idle connection flushed again: %d → %d flushes", flushed, got)
	}
}

// TestNewConnBoundsSocketBuffers pins the kernel queue under each end of a
// TCP connection at two reader refills. Linux reports double the size
// requested, so each buffer must read at most 4 × readBufferBytes.
func TestNewConnBoundsSocketBuffers(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("socket buffer sizes are read back with Linux semantics")
	}
	client, server := connPair(t)
	for _, c := range []*Conn{client, server} {
		raw, err := c.c.(*net.TCPConn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range map[string]int{"SO_SNDBUF": syscall.SO_SNDBUF, "SO_RCVBUF": syscall.SO_RCVBUF} {
			var size int
			var serr error
			if err := raw.Control(func(fd uintptr) {
				size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
			}); err != nil {
				t.Fatal(err)
			}
			if serr != nil {
				t.Fatalf("%s: %v", name, serr)
			}
			if size > 4*readBufferBytes {
				t.Errorf("%s of %s = %d bytes, want ≤ %d", name, c.c.LocalAddr(), size, 4*readBufferBytes)
			}
		}
	}
}

// TestSendNowFlushAllocFree pins the vectored flush at zero heap
// allocations: a frame sent and flushed through a warm egress ring to a
// peer that keeps draining costs nothing per call.
func TestSendNowFlushAllocFree(t *testing.T) {
	client, server := connPair(t)
	go func() {
		buf := make([]byte, readBufferBytes)
		for {
			if _, err := server.c.Read(buf); err != nil {
				return
			}
		}
	}()
	f := &Frame{Type: TypePing, Seq: 1}
	if got := testing.AllocsPerRun(1000, func() {
		if err := client.SendNow(f); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("SendNow allocated %v times per call, want 0", got)
	}
}

// settlePools polls until both process-wide pools return to the given
// outstanding counts (teardown is asynchronous) or the wait elapses.
func settlePools(t *testing.T, notes, bufs int64, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		if burst.Notes.Outstanding() == notes && burst.Bufs.Outstanding() == bufs {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pools did not settle: notes %d (want %d), bufs %d (want %d)",
				burst.Notes.Outstanding(), notes, burst.Bufs.Outstanding(), bufs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSeenSetDuplicatePutOnce drives the seen-set rejection over the real
// wire: a duplicate publish is decoded into a pooled notification on the
// broker, rejected by the seen-set, and must return to the pool exactly
// once — outstanding settles back to its pre-test level and the
// double-Put detector stays clean.
func TestSeenSetDuplicatePutOnce(t *testing.T) {
	notesBase, bufsBase := burst.Notes.Outstanding(), burst.Bufs.Outstanding()
	doubleBase := burst.Notes.DoublePuts() + burst.Bufs.DoublePuts()

	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("t", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("dup", "t", 3)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(wireNote("dup", "t", 3)); err == nil {
		t.Fatal("duplicate ID accepted")
	}

	pub.Close()
	h.proxy.Close()
	h.broker.Close()
	settlePools(t, notesBase, bufsBase, 2*time.Second)
	if got := burst.Notes.DoublePuts() + burst.Bufs.DoublePuts(); got != doubleBase {
		t.Errorf("double-Puts grew from %d to %d during the duplicate publish", doubleBase, got)
	}
}

// TestPublishBatchPooledLifecycle publishes a pooled batch through the
// pipelined PublishBatch path and asserts the caller keeps ownership: the
// notes are still live (and Put-able exactly once) after the call, and
// the pools settle to their baseline afterwards.
func TestPublishBatchPooledLifecycle(t *testing.T) {
	notesBase, bufsBase := burst.Notes.Outstanding(), burst.Bufs.Outstanding()

	h := newHarness(t)
	pub, err := DialBroker(h.brokerAddr, "publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("t", ""); err != nil {
		t.Fatal(err)
	}
	batch := make([]*msg.Notification, 8)
	for i := range batch {
		n := burst.Notes.Get()
		n.ID = msg.ID(rune('a' + i))
		n.Topic = "t"
		n.Rank = 3
		n.Published = time.Now()
		batch[i] = n
	}
	for i, err := range pub.PublishBatch(batch) {
		if err != nil {
			t.Fatalf("batch publish %d: %v", i, err)
		}
	}
	for _, n := range batch {
		if n.PoolProvenance() != msg.PoolCheckedOut {
			t.Fatalf("note %s no longer caller-owned after PublishBatch", n.ID)
		}
		burst.Notes.Put(n)
	}

	pub.Close()
	h.proxy.Close()
	h.broker.Close()
	settlePools(t, notesBase, bufsBase, 2*time.Second)
}

// dialSubscriber opens a raw broker connection that says hello as name
// and subscribes on-line to topic.
func dialSubscriber(t *testing.T, addr, name, topic string) *Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	t.Cleanup(func() { _ = conn.Close() })
	conn.SetTimeouts(5*time.Second, 0)
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: name}, nil); err != nil {
		t.Fatalf("%s hello: %v", name, err)
	}
	sub := &msg.Subscription{Topic: topic, Subscriber: name,
		Options: msg.SubscriptionOptions{Mode: msg.OnLine}}
	if err := syncExchange(conn, &Frame{Type: TypeSubscribe, Subscription: sub}, nil); err != nil {
		t.Fatalf("%s subscribe: %v", name, err)
	}
	return conn
}

// recvPush reads frames until the next push and returns it.
func recvPush(t *testing.T, conn *Conn, who string) *Frame {
	t.Helper()
	for {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s recv: %v", who, err)
		}
		if f.Type == TypePush {
			return f
		}
	}
}

// TestOverboundFanOutSkipsEveryTarget fans a notification whose push frame
// exceeds the frame bound out to two subscribers. The encode fails on size
// for every target alike: neither receives it, neither connection latches
// an error (the next notification reaches both), and the pools settle.
func TestOverboundFanOutSkipsEveryTarget(t *testing.T) {
	notesBase, bufsBase := burst.Notes.Outstanding(), burst.Bufs.Outstanding()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker("broker")
	bs := NewBrokerServer(broker, t.Logf)
	go func() { _ = bs.Serve(lis) }()
	defer bs.Close()
	if err := broker.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	subs := []*Conn{
		dialSubscriber(t, lis.Addr().String(), "sub-a", "news"),
		dialSubscriber(t, lis.Addr().String(), "sub-b", "news"),
	}

	big := wireNote("big", "news", 5)
	big.Payload = make([]byte, maxFrameBytes)
	if err := broker.Publish(big); err != nil {
		t.Fatal(err)
	}
	if err := broker.Publish(wireNote("small", "news", 5)); err != nil {
		t.Fatal(err)
	}
	for i, conn := range subs {
		f := recvPush(t, conn, "subscriber")
		if f.Notification.ID != "small" {
			t.Errorf("subscriber %d: first push is %q, want small (the over-bound one skipped)", i, f.Notification.ID)
		}
	}

	for _, conn := range subs {
		_ = conn.Close()
	}
	bs.Close()
	settlePools(t, notesBase, bufsBase, 2*time.Second)
}
