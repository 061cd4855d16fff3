package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// TestSharedEncodingEncodesOnce drives one fan-out's encoding memo: N
// subscribers cost exactly one encode, every returned reference is
// independently releasable, and dropping the memo recycles the buffer.
func TestSharedEncodingEncodesOnce(t *testing.T) {
	bufsBase := burst.Bufs.Outstanding()
	enc := getSharedEncoding()
	encodes := 0
	for i := 0; i < 5; i++ {
		b, err := enc.Buf(func(dst []byte) ([]byte, error) {
			encodes++
			return append(dst, "frame-bytes"...), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(b.B) != "frame-bytes" {
			t.Fatalf("call %d returned %q", i, b.B)
		}
		burst.Bufs.Put(b) // each caller releases its own reference
	}
	if encodes != 1 {
		t.Fatalf("encode ran %d times for one fan-out, want 1", encodes)
	}
	putSharedEncoding(enc)
	if got := burst.Bufs.Outstanding(); got != bufsBase {
		t.Fatalf("buffers outstanding %d, want %d after memo release", got, bufsBase)
	}
}

// TestSharedEncodingMemoizesError checks an encode failure is charged once
// and every later caller gets the same error (and no buffer), with
// nothing leaked.
func TestSharedEncodingMemoizesError(t *testing.T) {
	bufsBase := burst.Bufs.Outstanding()
	enc := getSharedEncoding()
	boom := errors.New("frame too large")
	encodes := 0
	for i := 0; i < 3; i++ {
		b, err := enc.Buf(func(dst []byte) ([]byte, error) {
			encodes++
			return nil, boom
		})
		if b != nil || !errors.Is(err, boom) {
			t.Fatalf("call %d = %v, %v", i, b, err)
		}
	}
	if encodes != 1 {
		t.Fatalf("failed encode ran %d times, want 1 (memoized)", encodes)
	}
	putSharedEncoding(enc)
	if got := burst.Bufs.Outstanding(); got != bufsBase {
		t.Fatalf("buffers outstanding %d, want %d", got, bufsBase)
	}
}

// sharedRecorder is a SharedDeliverer double: it records which path the
// broker chose and takes (then immediately releases) a frame reference,
// like the wire layer does.
type sharedRecorder struct {
	recorder
	sharedCalls atomic.Int64
	encodes     atomic.Int64
}

var _ SharedDeliverer = (*sharedRecorder)(nil)

func (s *sharedRecorder) DeliverShared(n *msg.Notification, enc *SharedEncoding) {
	s.sharedCalls.Add(1)
	b, err := enc.Buf(func(dst []byte) ([]byte, error) {
		s.encodes.Add(1)
		return append(dst, n.ID...), nil
	})
	if err != nil {
		return
	}
	burst.Bufs.Put(b)
}

// TestFanOutSharedDispatch publishes through a broker with a mix of shared
// and legacy subscribers: SharedDeliverers get the encode-once path (one
// encode total across the width), plain Subscribers still get owned
// clones, and no pooled object leaks.
func TestFanOutSharedDispatch(t *testing.T) {
	notesBase := burst.Notes.Outstanding()
	bufsBase := burst.Bufs.Outstanding()

	b := NewBroker("b1")
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	const width = 16
	shared := make([]*sharedRecorder, width)
	for i := range shared {
		shared[i] = &sharedRecorder{}
		if err := b.Subscribe(sub("news", fmt.Sprintf("shared-%d", i)), shared[i]); err != nil {
			t.Fatal(err)
		}
	}
	legacy := &recorder{}
	if err := b.Subscribe(sub("news", "legacy"), legacy); err != nil {
		t.Fatal(err)
	}

	if err := b.Publish(note("n1", "news", 3)); err != nil {
		t.Fatal(err)
	}

	var encodes int64
	for i, s := range shared {
		if got := s.sharedCalls.Load(); got != 1 {
			t.Fatalf("shared subscriber %d saw %d DeliverShared calls, want 1", i, got)
		}
		encodes += s.encodes.Load()
	}
	if encodes != 1 {
		t.Fatalf("fan-out of width %d ran %d encodes, want 1", width, encodes)
	}
	if legacy.count() != 1 {
		t.Fatalf("legacy subscriber got %d deliveries, want 1", legacy.count())
	}
	// The legacy clone is owned by its subscriber; release it so the leak
	// account settles.
	burst.Notes.Put(legacy.notes[0])
	settle(t, notesBase, bufsBase)
}

// settle polls the process-wide pools back to their baselines.
func settle(t *testing.T, notes, bufs int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
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

// TestFanOutSharedConcurrentPublish hammers the shared dispatch from many
// publishers at once (run with -race): the per-fan-out encoding memos are
// pooled and must not cross wires between concurrent fan-outs.
func TestFanOutSharedConcurrentPublish(t *testing.T) {
	notesBase := burst.Notes.Outstanding()
	bufsBase := burst.Bufs.Outstanding()

	b := NewBroker("b1")
	if err := b.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	const width = 8
	shared := make([]*sharedRecorder, width)
	for i := range shared {
		shared[i] = &sharedRecorder{}
		if err := b.Subscribe(sub("news", fmt.Sprintf("shared-%d", i)), shared[i]); err != nil {
			t.Fatal(err)
		}
	}
	const publishers, per = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Publish(note(msg.ID(fmt.Sprintf("n-%d-%d", p, i)), "news", 3)); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for i, s := range shared {
		if got := s.sharedCalls.Load(); got != publishers*per {
			t.Fatalf("subscriber %d saw %d shared deliveries, want %d", i, got, publishers*per)
		}
		// One encode per fan-out, never per subscriber.
		if got := s.encodes.Load(); got > publishers*per {
			t.Fatalf("subscriber %d ran %d encodes", i, got)
		}
	}
	var encodes int64
	for _, s := range shared {
		encodes += s.encodes.Load()
	}
	if encodes != publishers*per {
		t.Fatalf("total encodes %d across %d fan-outs, want exactly one each", encodes, publishers*per)
	}
	settle(t, notesBase, bufsBase)
}
