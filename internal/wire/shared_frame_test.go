package wire

import (
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// encodedPush returns a pooled buffer holding one encoded push frame, the
// way the shared fan-out builds them.
func encodedPush(t *testing.T, id string) *burst.Buf {
	t.Helper()
	b := burst.Bufs.Get()
	out, err := appendFrame(b.B[:0], &Frame{
		Type:         TypePush,
		Notification: &msg.Notification{ID: msg.ID(id), Topic: "t", Rank: 3, Published: time.Now()},
	})
	if err != nil {
		burst.Bufs.Put(b)
		t.Fatal(err)
	}
	b.B = out
	return b
}

// closePair closes both ends of a conn pair. Close drains the egress ring
// under the writer lock, so once it returns no flush of this pair still
// holds a pooled buffer: a test that closes its pairs before it settles
// leaves nothing for the next test's pool baseline to count.
func closePair(client, server *Conn) {
	_ = client.Close()
	_ = server.Close()
}

// TestSendSharedDelivers sends one pre-encoded shared buffer and checks the
// peer decodes the frame and the buffer returns to the pool after the
// flush.
func TestSendSharedDelivers(t *testing.T) {
	bufsBase := burst.Bufs.Outstanding()
	client, server := connPair(t)
	if err := client.SendShared(encodedPush(t, "s1")); err != nil {
		t.Fatal(err)
	}
	f, err := server.Recv()
	if err != nil || f.Type != TypePush || f.Notification == nil || f.Notification.ID != "s1" {
		t.Fatalf("Recv = %+v, %v", f, err)
	}
	closePair(client, server)
	settlePools(t, burst.Notes.Outstanding(), bufsBase, 2*time.Second)
}

// TestSendSharedOneBufferManyConns enqueues the SAME ref-counted buffer on
// several connections at once (run with -race): every peer receives the
// frame, the flushes release their references concurrently, and the buffer
// recycles exactly once.
func TestSendSharedOneBufferManyConns(t *testing.T) {
	const width = 8
	bufsBase := burst.Bufs.Outstanding()
	sharedBase := burst.Bufs.SharedPuts()
	doubleBase := burst.Bufs.DoublePuts()

	clients := make([]*Conn, width)
	servers := make([]*Conn, width)
	for i := range clients {
		clients[i], servers[i] = connPair(t)
	}
	b := encodedPush(t, "wide")
	for i, c := range clients {
		ref := b
		if i < width-1 {
			ref = b.Ref() // SendShared consumes one reference per conn
		}
		if err := c.SendShared(ref); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range servers {
		f, err := s.Recv()
		if err != nil || f.Type != TypePush || f.Notification.ID != "wide" {
			t.Fatalf("conn %d Recv = %+v, %v", i, f, err)
		}
	}
	for i := range clients {
		closePair(clients[i], servers[i])
	}
	settlePools(t, burst.Notes.Outstanding(), bufsBase, 2*time.Second)
	if got := burst.Bufs.SharedPuts() - sharedBase; got != width-1 {
		t.Errorf("shared (non-final) releases = %d, want %d", got, width-1)
	}
	if got := burst.Bufs.DoublePuts() - doubleBase; got != 0 {
		t.Errorf("double-Puts grew by %d during shared fan-out", got)
	}
}

// TestSendSharedReleasesOnLatchedError breaks the transport and keeps
// sending shared buffers: once the write error latches, SendShared must
// fail AND still release the caller's reference — the pool settles back to
// baseline with no leaked frames.
func TestSendSharedReleasesOnLatchedError(t *testing.T) {
	bufsBase := burst.Bufs.Outstanding()
	client, server := connPair(t)
	_ = server.Close() // peer goes away; client writes start failing

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := client.SendShared(encodedPush(t, "err"))
		if err != nil {
			break // latched: the failed buffer was released by SendShared
		}
		if time.Now().After(deadline) {
			t.Fatal("write error never latched after peer close")
		}
		time.Sleep(time.Millisecond)
	}
	settlePools(t, burst.Notes.Outstanding(), bufsBase, 2*time.Second)
}

// TestSendSharedReleasesOnCloseMidFlush closes the connection with shared
// frames still queued on the egress ring: the close-time drain (or drop)
// must release every reference.
func TestSendSharedReleasesOnCloseMidFlush(t *testing.T) {
	bufsBase := burst.Bufs.Outstanding()
	client, _ := connPair(t)
	for i := 0; i < 32; i++ {
		if err := client.SendShared(encodedPush(t, "q")); err != nil {
			break // latched errors release too; either way nothing leaks
		}
	}
	_ = client.Close()
	settlePools(t, burst.Notes.Outstanding(), bufsBase, 2*time.Second)
}
