package wire

// Fuzz targets for the frame codec, which faces untrusted bytes: whatever
// arrives, a server must answer with a frame or an error — never a panic,
// never a leaked pooled notification.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

func mustEncode(f *testing.F, fr *Frame) []byte {
	f.Helper()
	out, err := appendFrame(nil, fr)
	if err != nil {
		f.Fatal(err)
	}
	return out
}

// rawFrame frames a hand-written compact body — field mask, then whatever
// bytes follow it — as prefix, kind, body.
func rawFrame(kind byte, mask uint64, fields ...byte) []byte {
	body := append(binary.AppendUvarint(nil, mask), fields...)
	return append(append(binary.AppendUvarint(nil, uint64(len(body))), kind), body...)
}

// controlFrame frames a kind-0 (encoding/json) body as it arrives on the
// wire.
func controlFrame(body string) []byte {
	return append(append(binary.AppendUvarint(nil, uint64(len(body))), kindControl), body...)
}

// codecSeeds is one valid frame per kind byte, shared by the byte-level
// fuzz targets.
func codecSeeds(f *testing.F) [][]byte {
	at := time.Unix(1700000000, 123456789)
	n := &msg.Notification{ID: "a", Topic: "t", Publisher: "p", Rank: 4.25, Published: at, Expires: at.Add(time.Hour), Payload: []byte("hi")}
	tc := &msg.TraceContext{TraceID: "a", Origin: "b1", Hops: []msg.TraceHop{{Node: "b1", At: 1700000000000000000}}}
	return [][]byte{
		mustEncode(f, &Frame{Type: TypeHello, Name: "x"}),
		mustEncode(f, &Frame{Type: TypePush, Notification: n, Trace: tc}),
		mustEncode(f, &Frame{Type: TypePushBatch, Batch: []*msg.Notification{n, nil, n}, Traces: []*msg.TraceContext{tc, nil}}),
		mustEncode(f, &Frame{Type: TypePublish, Seq: 12, Notification: n}),
		mustEncode(f, &Frame{Type: TypeRead, Seq: 3, Read: &msg.ReadRequest{Topic: "t", N: 8, QueueSize: 9, ClientEvents: []msg.ID{"a", "b"}, Peek: true}}),
		mustEncode(f, &Frame{Type: TypeOK, Re: 3, Count: 2}),
		mustEncode(f, &Frame{Type: TypeErr, Re: 3, Message: "no", Code: CodeDuplicateID}),
		mustEncode(f, &Frame{Type: TypePing, Seq: 1}),
		mustEncode(f, &Frame{Type: TypePong, Re: 1}),
		mustEncode(f, &Frame{Type: TypeSubscribe, Seq: 2, Topic: "t", TopicPolicy: &TopicPolicy{Policy: "buffer", Max: 8}}),
		mustEncode(f, &Frame{Type: TypeResume, Seq: 4, Topic: "t", HaveIDs: []msg.ID{"a"}, ReadIDs: []msg.ID{"b"}}),
	}
}

// FuzzFrameDecode feeds arbitrary byte streams to a pooled, frame-reusing
// Recv — the configuration of the servers' read loops.
func FuzzFrameDecode(f *testing.F) {
	seeds := codecSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	push := seeds[1]
	// Several frames in one stream, the last cut short.
	f.Add(append(bytes.Join(seeds, nil), push[:len(push)-3]...))
	// A frame of exactly the maximum length, and a batch of many entries.
	const bigOverhead = 20 // mask, flags, "big", "t", "", rank, 3-byte payload length
	big := mustEncode(f, &Frame{Type: TypePush, Notification: &msg.Notification{ID: "big", Topic: "t", Payload: make([]byte, maxFrameBytes-bigOverhead)}})
	if len(big) != maxWireBytes {
		f.Fatalf("the maximal seed is %d bytes short of the bound", maxWireBytes-len(big))
	}
	f.Add(big)
	many := make([]*msg.Notification, 4096)
	for i := range many {
		many[i] = &msg.Notification{ID: "x", Topic: "t", Rank: 1}
	}
	f.Add(mustEncode(f, &Frame{Type: TypePushBatch, Batch: many}))
	// Length prefixes: one past the bound, four bytes long, padded.
	f.Add([]byte{0x81, 0x80, 0x40, kindPush})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, kindPush})
	f.Add([]byte{0x80, 0x00, kindOK})
	// Bodies: unknown kind, unknown mask bit, a field its kind cannot
	// carry, an overlong inner varint, an inner length past the body end,
	// a batch count past the body end, trailing garbage.
	f.Add(rawFrame(0x7f, 0))
	f.Add(rawFrame(kindOK, hasTraces<<1))
	f.Add(append([]byte{push[0], kindOK}, push[2:]...))
	f.Add(rawFrame(kindOK, hasRe, 0x80, 0x00))
	f.Add(rawFrame(kindErr, hasMessage, 0x7f))
	f.Add(rawFrame(kindPushBatch, hasBatch, 0x7f, 0))
	f.Add(rawFrame(kindPing, hasSeq, 1, 0xee))
	f.Add([]byte(`{"type":"hello","name":"x"}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := burst.Notes.Outstanding()
		conn, _ := recvOnly(data)
		conn.SetNotePool(true)
		conn.SetRecvReuse(true)
		for {
			fr, err := conn.Recv()
			if err != nil {
				break
			}
			// Whatever decoded must survive the paths a server exercises.
			if fr.TopicPolicy != nil {
				_, _ = fr.TopicPolicy.ToConfig("fuzz")
			}
			if fr.Read != nil {
				_ = fr.Read.Validate()
			}
			if fr.Notification != nil {
				_ = fr.Notification.Validate()
			}
			if fr.Subscription != nil {
				_ = fr.Subscription.Validate()
			}
			if fr.RankUpdate != nil {
				_ = fr.RankUpdate.Validate()
			}
			for _, n := range fr.Batch {
				if n != nil {
					_ = n.Validate()
				}
			}
			// Hostile Traces lengths (longer or shorter than Batch) must
			// never panic the reattachment the receive path performs.
			adoptBatchTraces(fr)
			// (JSON escaping may push a near-maximal control frame over
			// the bound on the way back out; nothing else may fail.)
			if _, err := appendFrame(nil, fr); err != nil && err != errFrameTooLong {
				t.Fatalf("re-encode: %v", err)
			}
			releaseFrameNotes(fr)
		}
		// Other tests' teardown may still be returning notifications, so
		// the count can fall below the baseline here — never stay above it.
		if got := burst.Notes.Outstanding(); got > base {
			t.Fatalf("%d pooled notifications leaked", got-base)
		}
	})
}

func FuzzNotificationRoundTrip(f *testing.F) {
	f.Add("id-1", "topic/a", 4.5, []byte("payload"))
	f.Add("", "", -1.0, []byte(nil))
	f.Fuzz(func(t *testing.T, id, topic string, rank float64, payload []byte) {
		if math.IsNaN(rank) || math.IsInf(rank, 0) {
			t.Skip("non-finite ranks are rejected at encode time")
		}
		n := &msg.Notification{ID: msg.ID(id), Topic: topic, Rank: rank, Payload: payload}
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back msg.Notification
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal own output: %v", err)
		}
		if back.ID != n.ID || back.Topic != n.Topic {
			t.Fatalf("round trip changed identity: %+v vs %+v", back, n)
		}
	})
}

// FuzzBatchFrameEncode round-trips batch frames built from arbitrary field
// values — any byte string, any float including NaN and ±Inf, any instant —
// through both the heap decoder and the pooled, interning one.
func FuzzBatchFrameEncode(f *testing.F) {
	f.Add(3, "id", "topic/a", "pub", 4.5, []byte("payload"), int64(1_700_000_000))
	f.Add(1, "", "", "", -0.0, []byte(nil), int64(0))
	f.Add(8, "nö\x00n", "t<a>&b", "svc\"q\\", 1e21, []byte{0x00, 0xff}, int64(4_000_000_000))
	f.Add(5, "tr-1", "node/x", `origin "o"`, 2.5, []byte("p"), int64(123_456_789))
	f.Add(6, "\xff", "t", "p", math.NaN(), []byte{1}, int64(-62135596800)) // the zero instant
	f.Add(7, "old", "t", "p", math.Inf(-1), []byte{}, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, count int, id, topic, publisher string, rank float64, payload []byte, sec int64) {
		if count < 0 {
			count = -count
		}
		count = count%8 + 1
		at := time.Unix(sec, sec&0x3fffffff%1e9)
		batch := make([]*msg.Notification, count)
		for i := range batch {
			if i%4 == 3 {
				continue // a nil entry
			}
			n := &msg.Notification{ID: msg.ID(id), Topic: topic, Rank: rank, Published: at, Payload: payload}
			if i%2 == 1 {
				n.Publisher = publisher
				n.Expires = at.Add(time.Duration(i) * time.Hour)
			}
			batch[i] = n
		}
		fr := &Frame{Type: TypePushBatch, Batch: batch}
		// Even batch sizes carry aligned trace contexts, with every third
		// entry left nil the way an unsampled notification would be.
		if count%2 == 0 {
			fr.Traces = make([]*msg.TraceContext, len(batch))
			for i := range fr.Traces {
				if i%3 == 2 {
					continue
				}
				fr.Traces[i] = &msg.TraceContext{
					TraceID: id, Origin: publisher,
					Hops: []msg.TraceHop{{Node: topic, At: sec}},
				}
			}
		}
		enc, back := roundTrip(t, fr)
		if !sameFrame(fr, back) {
			t.Fatalf("batch changed in flight\nsent: %+v\n got: %+v\n enc: %x", fr, back, enc)
		}

		base := burst.Notes.Outstanding()
		opts := &decodeOpts{pool: burst.Notes, names: make(map[string]string)}
		kind, body, _, _ := splitFrame(enc)
		var pooled Frame
		err := decodeBody(kind, body, &pooled, opts)
		same := err == nil && sameFrame(fr, &pooled)
		releaseFrameNotes(&pooled)
		if !same {
			t.Fatalf("pooled decode diverged (%v)\nsent: %+v\n got: %+v", err, fr, &pooled)
		}
		if got := burst.Notes.Outstanding(); got > base {
			t.Fatalf("%d pooled notifications leaked", got-base)
		}
	})
}

// FuzzDecodeFrameEquivalence holds the decoder and the encoder to each
// other on arbitrary input: whatever frame the decoder accepts must encode,
// and that encoding must be a fixed point — it decodes to a frame that
// encodes to the same bytes, with the same notifications. (The input itself
// need not be canonical: a set flag may announce an empty field.)
func FuzzDecodeFrameEquivalence(f *testing.F) {
	seeds := codecSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// Non-canonical but acceptable: fields announced and empty, a time
	// flag announcing the zero instant, JSON with spelled-out empties and
	// with keys no Frame field names.
	f.Add(rawFrame(kindErr, hasMessage|hasCode, 0, 0))
	f.Add(rawFrame(kindPushBatch, hasBatch|hasTraces, 0, 0))
	zeroInstant := binary.AppendVarint([]byte{notePublished, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, -62135596800)
	f.Add(rawFrame(kindPush, hasNote, append(zeroInstant, 0, 0)...))
	f.Add(controlFrame(`{"type":"ok","haveIDs":[],"batch":[]}`))
	f.Add(controlFrame(`{"type":"hello","name":"x","caps":["push-batch","future-cap"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Frame
		if decodeFrame(data, &first) != nil {
			return
		}
		enc, err := appendFrame(nil, &first)
		if err == errFrameTooLong {
			return // JSON escaping grew a near-maximal control frame
		}
		if err != nil {
			t.Fatalf("decoder accepted a frame the encoder refuses (%v): %x", err, data)
		}
		var second Frame
		if err := decodeFrame(enc, &second); err != nil {
			t.Fatalf("re-decode: %v\ninput: %x\n  enc: %x", err, data, enc)
		}
		again, err := appendFrame(nil, &second)
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixed point (%v)\ninput:  %x\nfirst:  %x\nsecond: %x", err, data, enc, again)
		}
		if !sameNote(first.Notification, second.Notification) || len(first.Batch) != len(second.Batch) {
			t.Fatalf("notifications diverged\nfirst:  %+v\nsecond: %+v", &first, &second)
		}
		for i := range first.Batch {
			if !sameNote(first.Batch[i], second.Batch[i]) {
				t.Fatalf("batch entry %d diverged\nfirst:  %+v\nsecond: %+v", i, first.Batch[i], second.Batch[i])
			}
		}
	})
}
