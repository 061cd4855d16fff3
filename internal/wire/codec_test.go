package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
)

// decodeFrame decodes exactly one encoded frame into heap notifications,
// the way Recv does on a connection without a note pool.
func decodeFrame(enc []byte, f *Frame) error {
	kind, body, size, err := splitFrame(enc)
	if err != nil {
		return err
	}
	if size != len(enc) {
		return fmt.Errorf("frame spans %d of %d bytes", size, len(enc))
	}
	return decodeBody(kind, body, f, nil)
}

// roundTrip encodes f and decodes the bytes back.
func roundTrip(t testing.TB, f *Frame) (enc []byte, back *Frame) {
	t.Helper()
	enc, err := appendFrame(nil, f)
	if err != nil {
		t.Fatalf("encode %s: %v", f.Type, err)
	}
	back = new(Frame)
	if err := decodeFrame(enc, back); err != nil {
		t.Fatalf("decode %s: %v\nenc: %x", f.Type, err, enc)
	}
	return enc, back
}

// sameNote compares what the codec promises to preserve: identity strings
// byte for byte, the rank's bit pattern (so NaN compares), the instants
// and their zero-ness (not the location or a monotonic reading), and the
// payload bytes.
func sameNote(a, b *msg.Notification) bool {
	if a == nil || b == nil {
		return a == b
	}
	sameTime := func(x, y time.Time) bool { return x.Equal(y) && x.IsZero() == y.IsZero() }
	return a.ID == b.ID && a.Topic == b.Topic && a.Publisher == b.Publisher &&
		math.Float64bits(a.Rank) == math.Float64bits(b.Rank) &&
		sameTime(a.Published, b.Published) && sameTime(a.Expires, b.Expires) &&
		bytes.Equal(a.Payload, b.Payload)
}

// sameFrame deep-compares two frames, notifications by sameNote and an
// empty slice equal to a nil one (neither is sent).
func sameFrame(a, b *Frame) bool {
	if !sameNote(a.Notification, b.Notification) || len(a.Batch) != len(b.Batch) ||
		len(a.Traces) != len(b.Traces) {
		return false
	}
	for i := range a.Batch {
		if !sameNote(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	for i := range a.Traces {
		if !reflect.DeepEqual(a.Traces[i], b.Traces[i]) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Notification, ac.Batch, ac.Traces = nil, nil, nil
	bc.Notification, bc.Batch, bc.Traces = nil, nil, nil
	return reflect.DeepEqual(ac, bc)
}

// streamConn is a Conn whose socket is an in-memory byte stream, with no
// flusher goroutine: enough to drive Recv.
type streamConn struct {
	net.Conn // nil: only Read is ever called
	r        io.Reader
	reads    int
}

func (s *streamConn) Read(p []byte) (int, error) {
	s.reads++
	return s.r.Read(p)
}

func recvOnly(stream []byte) (*Conn, *streamConn) {
	sc := &streamConn{r: bytes.NewReader(stream)}
	return &Conn{c: sc, r: newFrameReader(sc)}, sc
}

// TestAppendFrameMatchesEncodingJSON is the codec's round-trip table (the
// name is the one the test-ID floor pins): decode(encode(f)) must equal f
// for every kind, at the edges of every field.
func TestAppendFrameMatchesEncodingJSON(t *testing.T) {
	at := time.Unix(1700000000, 123456789).UTC()
	exp := time.Unix(1800000000, 0).UTC()
	tc := &msg.TraceContext{TraceID: "n9", Origin: "broker-1",
		Hops: []msg.TraceHop{{Node: "broker-1", At: 1700000000123456789}, {Node: "proxy-1", At: math.MinInt64}}}
	frames := []*Frame{
		{Type: TypePush, Notification: &msg.Notification{ID: "n1", Topic: "news", Rank: 3.5, Published: at}},
		{Type: TypePush, Notification: &msg.Notification{
			ID: "n2", Topic: "news/sports", Publisher: "wire-svc", Rank: -2,
			Published: at, Expires: exp, Payload: []byte("hello, \"world\"\n"),
		}},
		// Everything zero: no ID, no times, no payload.
		{Type: TypePush, Notification: &msg.Notification{}},
		// Ranks JSON could not carry, and one it could only carry slowly.
		{Type: TypePush, Notification: &msg.Notification{ID: "inf", Topic: "t", Rank: math.Inf(1)}},
		{Type: TypePush, Notification: &msg.Notification{ID: "-inf", Topic: "t", Rank: math.Inf(-1)}},
		{Type: TypePush, Notification: &msg.Notification{ID: "nan", Topic: "t", Rank: math.NaN()}},
		{Type: TypePush, Notification: &msg.Notification{ID: "-0", Topic: "t", Rank: math.Copysign(0, -1)}},
		{Type: TypePush, Notification: &msg.Notification{ID: "pi", Topic: "t", Rank: math.Pi * 1e-3}},
		// IDs and names that are not UTF-8, or would need JSON escaping.
		{Type: TypePush, Notification: &msg.Notification{ID: "n\xff\xfe\x00", Topic: "t<a>&b\xc3", Publisher: "p\"\\\n", Rank: 1}},
		// Times outside UnixNano's range (before 1678, after 2262), a
		// non-UTC location, and a monotonic reading.
		{Type: TypePush, Notification: &msg.Notification{ID: "old", Topic: "t",
			Published: time.Date(1066, 10, 14, 9, 0, 0, 1, time.UTC), Expires: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)}},
		{Type: TypePush, Notification: &msg.Notification{ID: "zone", Topic: "t",
			Published: time.Date(2026, 8, 5, 12, 30, 45, 0, time.FixedZone("", 2*3600)), Expires: time.Now().Add(time.Hour)}},
		// Only one of the two times set.
		{Type: TypePush, Notification: &msg.Notification{ID: "exp-only", Topic: "t", Expires: exp}},
		// Scalars ride any kind.
		{Type: TypePush, Seq: 9, Re: 3, Notification: &msg.Notification{ID: "n8", Topic: "t", Rank: 1, Published: at}},
		{Type: TypePush, Notification: &msg.Notification{ID: "n9", Topic: "t", Rank: 1, Published: at}, Trace: tc},
		{Type: TypePush, Notification: &msg.Notification{ID: "n10", Topic: "t", Rank: 1, Published: at},
			Trace: &msg.TraceContext{TraceID: "id \"quoted\" \xff", Origin: "nö"}},
		{Type: TypePush, Notification: &msg.Notification{ID: "n11", Topic: "t"}, Trace: &msg.TraceContext{}},
		{Type: TypePushBatch, Batch: []*msg.Notification{
			{ID: "a", Topic: "t", Rank: 1, Published: at},
			{ID: "b", Topic: "t", Rank: 2, Published: at, Payload: []byte{0x00, 0xff, 0x10}},
			{ID: "c", Topic: "u", Rank: 3, Published: at, Expires: exp},
		}},
		{Type: TypePushBatch, Batch: []*msg.Notification{nil, {ID: "d", Topic: "t", Rank: 1}, nil}},
		{Type: TypePushBatch, Batch: []*msg.Notification{nil}},
		{Type: TypePushBatch},
		// Trace entries align with the batch by index; gaps are nil, and a
		// list longer or shorter than the batch survives as sent.
		{Type: TypePushBatch, Batch: []*msg.Notification{
			{ID: "a", Topic: "t", Rank: 1, Published: at},
			{ID: "b", Topic: "t", Rank: 2, Published: at},
			{ID: "c", Topic: "t", Rank: 3, Published: at},
		}, Traces: []*msg.TraceContext{tc, nil, {TraceID: "c"}}},
		{Type: TypePushBatch, Batch: []*msg.Notification{{ID: "a", Topic: "t"}}, Traces: []*msg.TraceContext{nil, nil, tc}},
		{Type: TypePublish, Seq: 7, Notification: &msg.Notification{ID: "p", Topic: "t", Publisher: "me", Rank: 999.999, Published: at, Payload: bytes.Repeat([]byte{0xab}, 300)}},
		{Type: TypePublish, Seq: math.MaxUint64, Notification: &msg.Notification{ID: "p", Topic: "t"}, Trace: tc},
		{Type: TypeRead, Seq: 9, Read: &msg.ReadRequest{Topic: "alerts/eu", N: 2, QueueSize: 5, ClientEvents: []msg.ID{"n-1", "", "n\xff"}, Peek: true}},
		{Type: TypeRead, Seq: 1, Read: &msg.ReadRequest{}},
		{Type: TypeRead, Read: &msg.ReadRequest{Topic: "t", N: -1, QueueSize: math.MaxInt32}},
		{Type: TypeOK},
		{Type: TypeOK, Re: 7},
		{Type: TypeOK, Re: 7, Count: 12},
		{Type: TypeOK, Re: 7, Count: -12},
		{Type: TypeErr, Re: 7, Code: CodeDuplicateID, Message: "nope \xff"},
		{Type: TypeErr, Message: "no request to blame"},
		{Type: TypePing, Seq: 1},
		{Type: TypePong, Re: 1},
		// Kind 0: everything the compact bodies do not model.
		{Type: TypeHello, Name: "dev"},
		{Type: TypeSubscribe, Seq: 2, Topic: "t", TopicPolicy: &TopicPolicy{Policy: "buffer", Max: 8, QuietWindows: []QuietWindowSpec{{StartMinutes: 60, EndMinutes: 120}}}},
		{Type: TypeSubscribe, Seq: 2, Subscription: &msg.Subscription{Topic: "t", Subscriber: "s", Options: msg.SubscriptionOptions{Max: 3, Threshold: 2.5, Mode: msg.OnLine}}},
		{Type: TypeResume, Seq: 3, Topic: "t", HaveIDs: []msg.ID{"a"}, ReadIDs: []msg.ID{"b", "c"}},
		{Type: TypeRankUpdate, Seq: 4, RankUpdate: &msg.RankUpdate{Topic: "t", ID: "a", NewRank: 2}},
		{Type: TypePushRank, RankUpdate: &msg.RankUpdate{Topic: "t", ID: "a", NewRank: 2}},
		{Type: TypePublish, Publisher: "b1", Notification: &msg.Notification{ID: "x", Topic: "t", Rank: 1, Published: at, Expires: exp, Payload: []byte("p")}, Trace: tc},
		{Type: "type-from-the-future", Seq: 5},
	}
	for i, f := range frames {
		enc, back := roundTrip(t, f)
		if !sameFrame(f, back) {
			t.Errorf("frame %d (%s) changed in flight\nsent: %+v\n got: %+v\n enc: %x", i, f.Type, f, back, enc)
		}
		// Encoding is deterministic, so the copy must encode to the very
		// bytes it was decoded from.
		again, err := appendFrame(nil, back)
		if err != nil || !bytes.Equal(enc, again) {
			t.Errorf("frame %d (%s) re-encodes differently (%v)\nfirst:  %x\nsecond: %x", i, f.Type, err, enc, again)
		}
	}
	// A hello that still lists capabilities decodes as the plain hello:
	// encoding/json skips the key no Frame field names.
	var hello Frame
	err := decodeFrame(controlFrame(`{"type":"hello","name":"dev","caps":["push-batch","trace-ctx"]}`), &hello)
	if err != nil || !sameFrame(&Frame{Type: TypeHello, Name: "dev"}, &hello) {
		t.Errorf("hello with caps decoded to %+v, %v", hello, err)
	}

	// A decoded time is plain UTC wall-clock: nothing of the sender's
	// location or monotonic clock crosses the wire.
	_, back := roundTrip(t, &Frame{Type: TypePush, Notification: &msg.Notification{ID: "now", Topic: "t", Published: time.Now()}})
	if got := back.Notification.Published; got.Location() != time.UTC || got != got.Round(0) {
		t.Errorf("decoded time %v is not bare UTC", got)
	}

	// A frame too large for the bound fails at the sender, and leaves the
	// destination buffer as it found it.
	big := &Frame{Type: TypePush, Notification: &msg.Notification{ID: "big", Topic: "t", Payload: make([]byte, maxFrameBytes)}}
	if out, err := appendFrame([]byte("keep"), big); err == nil || string(out) != "keep" {
		t.Errorf("oversized frame: out = %d bytes, err = %v", len(out), err)
	}
	// Kind 0 (forced here by the publisher name) inherits encoding/json's refusals.
	if _, err := appendFrame(nil, &Frame{Type: TypePublish, Publisher: "b1", Notification: &msg.Notification{ID: "x", Topic: "t", Rank: math.NaN()}}); err == nil {
		t.Error("a NaN rank crossed a JSON control frame")
	}
}

// TestDecodeFrameFastPath pins which frames take a compact kind: every
// shape the forward path sends. If one of these starts travelling as kind 0
// the last hop is back to paying for JSON.
func TestDecodeFrameFastPath(t *testing.T) {
	n := &msg.Notification{
		ID: "123456", Topic: "bench/t12", Publisher: "bench", Rank: 12.345,
		Published: time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC),
		Payload:   make([]byte, 32),
	}
	tc := &msg.TraceContext{TraceID: "t-1", Origin: "b1", Hops: []msg.TraceHop{{Node: "b1", At: 1700000000000000000}}}
	for _, tt := range []struct {
		f    *Frame
		kind byte
	}{
		{&Frame{Type: TypePush, Notification: n}, kindPush},
		{&Frame{Type: TypePush, Notification: n, Trace: tc}, kindPush},
		{&Frame{Type: TypePushBatch, Batch: []*msg.Notification{n, n}, Traces: []*msg.TraceContext{tc, nil}}, kindPushBatch},
		{&Frame{Type: TypePublish, Seq: 7, Notification: n}, kindPublish},
		{&Frame{Type: TypeRead, Seq: 9, Read: &msg.ReadRequest{Topic: "alerts/eu", N: 2, QueueSize: 5, ClientEvents: []msg.ID{"n-1", "n-2"}, Peek: true}}, kindRead},
		{&Frame{Type: TypeOK, Re: 7}, kindOK},
		{&Frame{Type: TypeErr, Re: 7, Code: CodeDuplicateID, Message: "seen"}, kindErr},
		{&Frame{Type: TypePing, Seq: 3}, kindPing},
		{&Frame{Type: TypePong, Re: 3}, kindPong},
	} {
		enc, back := roundTrip(t, tt.f)
		if kind, _, _, _ := splitFrame(enc); kind != tt.kind {
			t.Errorf("%s frame travels as kind %d, want %d", tt.f.Type, kind, tt.kind)
		}
		if !sameFrame(tt.f, back) {
			t.Errorf("%s frame changed in flight\nsent: %+v\n got: %+v", tt.f.Type, tt.f, back)
		}
	}
	// The issue's yardstick: a 32-byte payload with the benchmark's names
	// used to cost 234 bytes on the last hop.
	enc, _ := roundTrip(t, &Frame{Type: TypePush, Notification: n})
	if len(enc) > 90 {
		t.Errorf("a 32-byte push costs %d bytes on the wire, want at most 90", len(enc))
	}
	if got := encodedSizeHint(n); got < len(enc) {
		t.Errorf("encodedSizeHint = %d under-estimates the real %d", got, len(enc))
	}
}

// TestDecodeFrameBailsOnColdShapes checks both sides of the compact/kind-0
// border: a frame setting a field its kind does not model is sent as JSON
// rather than truncated, and a compact frame claiming such a field is
// refused rather than handed to a handler that would not release it.
func TestDecodeFrameBailsOnColdShapes(t *testing.T) {
	n := &msg.Notification{ID: "a", Topic: "t", Rank: 1}
	for _, f := range []*Frame{
		{Type: TypeHello, Name: "x"},
		{Type: TypeSubscribe, Subscription: &msg.Subscription{Topic: "t", Subscriber: "s"}},
		{Type: TypeResume, Topic: "t", HaveIDs: []msg.ID{"a"}, ReadIDs: []msg.ID{"b"}},
		{Type: TypeRankUpdate, RankUpdate: &msg.RankUpdate{Topic: "t", ID: "a", NewRank: 2}},
		{Type: TypePush, Topic: "t", Notification: n},
		{Type: TypePush, Name: "x", Notification: n},
		{Type: TypePush, Batch: []*msg.Notification{n}},
		{Type: TypePushBatch, Notification: n},
		{Type: TypeOK, Re: 1, Notification: n},
		{Type: TypeOK, Re: 1, Read: &msg.ReadRequest{Topic: "t"}},
		{Type: TypePing, Seq: 1, Trace: &msg.TraceContext{TraceID: "a"}},
	} {
		enc, back := roundTrip(t, f)
		if kind, _, _, _ := splitFrame(enc); kind != kindControl {
			t.Errorf("%s frame %+v travels as kind %d, want control", f.Type, f, kind)
		}
		if !sameFrame(f, back) {
			t.Errorf("%s frame changed in flight\nsent: %+v\n got: %+v", f.Type, f, back)
		}
	}

	body := appendNote(binary.AppendUvarint(nil, hasNote), n)
	for _, kind := range []byte{kindPushBatch, kindRead, kindOK, kindErr, kindPing, kindPong} {
		var f Frame
		if err := decodeBody(kind, body, &f, nil); err == nil {
			t.Errorf("kind %d accepted a notification field", kind)
		}
	}
	var f Frame
	if err := decodeBody(kindPush, body, &f, nil); err != nil || !sameNote(f.Notification, n) {
		t.Fatalf("the same body on a push: %+v, %v", f.Notification, err)
	}
}

// TestFullPrecisionRankCostsNothing: a rank is eight bytes whatever its
// digits, so a push with all seventeen significant digits allocates exactly
// what a three-decimal one does. (The JSON codec handed anything past
// fifteen digits to encoding/json: 4 → 15 allocations per push.)
func TestFullPrecisionRankCostsNothing(t *testing.T) {
	allocs := func(rank float64) float64 {
		n := &msg.Notification{ID: "123456", Topic: "bench/t12", Publisher: "bench", Rank: rank,
			Published: time.Unix(1700000000, 123456789), Payload: make([]byte, 32)}
		buf := make([]byte, 0, 256)
		opts := &decodeOpts{names: make(map[string]string)}
		// Both frames are reused, as the send and receive paths reuse theirs.
		in, out := &Frame{Type: TypePush, Notification: n}, new(Frame)
		return testing.AllocsPerRun(200, func() {
			enc, err := appendFrame(buf, in)
			if err != nil {
				t.Fatal(err)
			}
			kind, body, _, _ := splitFrame(enc)
			resetFrame(out)
			if err := decodeBody(kind, body, out, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, full := allocs(3.142), allocs(math.Pi*1e-3)
	if short != full {
		t.Errorf("rank 3.142 costs %.0f allocs per push, rank π/1000 costs %.0f", short, full)
	}
	// The notification, its ID and its payload.
	if full > 3 {
		t.Errorf("encode+decode of one push costs %.0f allocs, want at most 3", full)
	}
}

// TestFramesInOneSegmentDecodeFromOneRead: N frames that arrive together
// are cut out of the read buffer one after another — one read for all of
// them, and the ReadBurst histogram sees the N.
func TestFramesInOneSegmentDecodeFromOneRead(t *testing.T) {
	const n = 50
	var stream []byte
	for i := 0; i < n; i++ {
		var err error
		stream, err = appendFrame(stream, &Frame{Type: TypePush, Notification: wireNote(msg.ID(fmt.Sprint("seg-", i)), "t", float64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	conn, sock := recvOnly(stream)
	m := NewMetrics(obs.NewRegistry())
	conn.SetMetrics(m)
	for i := 0; i < n; i++ {
		f, err := conn.Recv()
		if err != nil || f.Notification == nil || f.Notification.ID != msg.ID(fmt.Sprint("seg-", i)) {
			t.Fatalf("frame %d: %+v, %v", i, f, err)
		}
	}
	if sock.reads != 1 {
		t.Errorf("%d frames took %d reads, want 1", n, sock.reads)
	}
	if got := m.BytesIn.Value(); got != int64(len(stream)) {
		t.Errorf("BytesIn = %d, the stream was %d bytes", got, len(stream))
	}
	if _, err := conn.Recv(); err == nil {
		t.Error("Recv past the end of the stream succeeded")
	}
	if count, sum := m.ReadBurst.Count(), m.ReadBurst.Sum(); count != 1 || sum != n {
		t.Errorf("ReadBurst saw %d fills totalling %v frames, want 1 fill of %d", count, sum, n)
	}
}

// TestRecvGrowsForOneLargeFrame: a frame longer than the read buffer makes
// the buffer grow to hold it, and the frames after it still decode.
func TestRecvGrowsForOneLargeFrame(t *testing.T) {
	big := &Frame{Type: TypePush, Notification: &msg.Notification{ID: "big", Topic: "t", Payload: bytes.Repeat([]byte{7}, maxFrameBytes-64)}}
	stream, err := appendFrame(nil, &Frame{Type: TypePing, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = appendFrame(stream, big); err != nil {
		t.Fatal(err)
	}
	if stream, err = appendFrame(stream, &Frame{Type: TypePong, Re: 1}); err != nil {
		t.Fatal(err)
	}
	conn, _ := recvOnly(stream)
	for i, want := range []string{TypePing, TypePush, TypePong} {
		f, err := conn.Recv()
		if err != nil || f.Type != want {
			t.Fatalf("frame %d: %+v, %v", i, f, err)
		}
		if want == TypePush && !sameNote(f.Notification, big.Notification) {
			t.Fatal("large payload changed in flight")
		}
	}
}

// TestBytesOutEqualsBytesIn: both byte counters count whole frames —
// prefix, kind and body — so a sender's BytesOut is its receiver's BytesIn
// whatever mix of Send, SendShared and batches carried the traffic.
func TestBytesOutEqualsBytesIn(t *testing.T) {
	client, server := connPair(t)
	out, in := NewMetrics(obs.NewRegistry()), NewMetrics(obs.NewRegistry())
	client.SetMetrics(out)
	server.SetMetrics(in)

	frames := 0
	send := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprint("acct-", i)
		send(client.Send(&Frame{Type: TypePush, Notification: wireNote(msg.ID(id), "t", 1)}))
		send(client.SendShared(encodedPush(t, id)))
		send(PushBatch(client, []*msg.Notification{wireNote("b1", "t", 1), wireNote("b2", "t", 2), wireNote("b3", "t", 3)}, true, false))
		send(client.Send(&Frame{Type: TypeHello, Name: id}))
		send(client.SendNow(&Frame{Type: TypePing, Seq: uint64(i + 1)}))
		// A body of 200 bytes takes a two-byte prefix.
		send(client.Send(&Frame{Type: TypePush, Notification: &msg.Notification{ID: "wide", Topic: "t", Payload: make([]byte, 200)}}))
	}
	for i := 0; i < frames; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatalf("frame %d of %d: %v", i, frames, err)
		}
	}
	if o, i := out.BytesOut.Value(), in.BytesIn.Value(); o != i || o == 0 {
		t.Errorf("sender counted %d bytes out, receiver %d bytes in", o, i)
	}
	if o, i := out.FramesOut.Value(), in.FramesIn.Value(); o != i || o != int64(frames) {
		t.Errorf("sender counted %d frames out, receiver %d in, want %d", o, i, frames)
	}
}

// TestRecvReleasesPooledNotesOnBadFrame: a batch that goes bad halfway has
// already checked notifications out of the pool; the failed Recv must put
// every one of them back.
func TestRecvReleasesPooledNotesOnBadFrame(t *testing.T) {
	base := burst.Notes.Outstanding()
	good, err := appendFrame(nil, &Frame{Type: TypePushBatch, Batch: []*msg.Notification{
		wireNote("a", "t", 1), wireNote("b", "t", 2), wireNote("c", "t", 3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Same header, but the body ends inside the third notification.
	bad := append([]byte{}, good[:len(good)-5]...)
	bad[0] -= 5
	conn, _ := recvOnly(bad)
	conn.SetNotePool(true)
	conn.SetRecvReuse(true)
	if f, err := conn.Recv(); err == nil {
		t.Fatalf("truncated batch decoded: %+v", f)
	}
	if got := burst.Notes.Outstanding(); got != base {
		t.Errorf("%d pooled notifications still checked out after the failed Recv", got-base)
	}
}
