package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// The frame codec. Every frame on a Conn is
//
//	uvarint body length · kind byte · body
//
// and is self-describing: nothing about it depends on the hello exchange.
// The eight frame types that carry notification traffic have a compact
// body — a uvarint field mask, then the present fields in bit order:
//
//	seq, re        uvarint
//	count          zigzag varint
//	notification   see appendNote
//	batch          uvarint count, then that many notifications
//	read           topic, zigzag n, zigzag queueSize, uvarint count + IDs, peek byte
//	message, code  length-prefixed bytes
//	trace          see appendTrace
//	traces         uvarint count, then per entry a presence byte and a trace
//
// Strings, IDs and payloads are a uvarint length and the raw bytes. Every
// other frame — and any frame of the eight that sets a field outside its
// kind's set — is kind 0, whose body is the encoding/json form of Frame.

// Frame kinds: the byte after the length prefix.
const (
	kindControl byte = iota // body is encoding/json of the whole Frame
	kindPush
	kindPushBatch
	kindPublish
	kindRead
	kindOK
	kindErr
	kindPing
	kindPong
	numKinds
)

// Field-mask bits of a compact body, in wire order.
const (
	hasSeq uint64 = 1 << iota
	hasRe
	hasCount
	hasNote
	hasBatch
	hasRead
	hasMessage
	hasCode
	hasTrace // trace contexts come last: only sampled notifications carry one
	hasTraces

	hasScalars = hasSeq | hasRe | hasCount | hasMessage | hasCode
)

// kindTypes maps a compact kind to its Frame.Type; kindFields lists the
// fields a kind may carry. Scalars ride any kind; a field that hands the
// receiver a (possibly pooled) object rides only the kinds whose handlers
// consume it.
var (
	kindTypes = [numKinds]string{
		kindPush: TypePush, kindPushBatch: TypePushBatch, kindPublish: TypePublish,
		kindRead: TypeRead, kindOK: TypeOK, kindErr: TypeErr,
		kindPing: TypePing, kindPong: TypePong,
	}
	kindFields = [numKinds]uint64{
		kindPush:      hasScalars | hasNote | hasTrace,
		kindPushBatch: hasScalars | hasBatch | hasTraces,
		kindPublish:   hasScalars | hasNote | hasTrace,
		kindRead:      hasScalars | hasRead,
		kindOK:        hasScalars,
		kindErr:       hasScalars,
		kindPing:      hasScalars,
		kindPong:      hasScalars,
	}
)

// Flag bits of an encoded notification.
const (
	noteNil       byte = 1 << iota // a nil batch entry; nothing follows
	notePublished                  // seconds + nanoseconds follow the rank
	noteExpires                    // likewise, after published
)

// maxFrameBytes bounds a frame body (1 MiB), protecting servers from
// unbounded frames; its uvarint prefix is therefore at most prefixBytes,
// and a whole frame — prefix, kind, body — at most maxWireBytes.
const (
	maxFrameBytes = 1 << 20
	prefixBytes   = 3
	maxWireBytes  = prefixBytes + 1 + maxFrameBytes
)

var (
	errFrameTooLong = fmt.Errorf("frame exceeds %d bytes", maxFrameBytes)
	errMalformed    = errors.New("malformed frame")
)

// compactShape picks the frame's kind and field mask. kindControl means
// the frame sets something the compact bodies do not model.
func (f *Frame) compactShape() (kind byte, mask uint64) {
	for k := kindPush; k < numKinds; k++ {
		if kindTypes[k] == f.Type {
			kind = k
			break
		}
	}
	if kind == kindControl || f.Name != "" || f.Topic != "" || f.Publisher != "" ||
		f.RankUpdate != nil || f.Subscription != nil || f.TopicPolicy != nil ||
		len(f.HaveIDs) != 0 || len(f.ReadIDs) != 0 {
		return kindControl, 0
	}
	for _, field := range [...]struct {
		bit     uint64
		present bool
	}{
		{hasSeq, f.Seq != 0},
		{hasRe, f.Re != 0},
		{hasCount, f.Count != 0},
		{hasNote, f.Notification != nil},
		{hasBatch, len(f.Batch) != 0},
		{hasRead, f.Read != nil},
		{hasMessage, f.Message != ""},
		{hasCode, f.Code != ""},
		{hasTrace, f.Trace != nil},
		{hasTraces, len(f.Traces) != 0},
	} {
		if field.present {
			mask |= field.bit
		}
	}
	if mask&^kindFields[kind] != 0 {
		return kindControl, 0
	}
	return kind, mask
}

// appendFrame appends the encoding of f — prefix, kind, body — to dst.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	kind, mask := f.compactShape()
	// The prefix is written last, once the body length is known; the body
	// then closes the gap a shorter prefix leaves.
	dst = append(dst, 0, 0, 0, kind) // prefixBytes of room, then the kind
	if kind == kindControl {
		b, err := json.Marshal(f)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, b...)
	} else {
		dst = appendBody(dst, f, mask)
	}
	body := dst[start+prefixBytes+1:]
	if len(body) > maxFrameBytes {
		return dst[:start], errFrameTooLong
	}
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(body)))
	copy(dst[start:], prefix[:n])
	copy(dst[start+n:], dst[start+prefixBytes:])
	return dst[:len(dst)-(prefixBytes-n)], nil
}

func appendBody(dst []byte, f *Frame, mask uint64) []byte {
	dst = binary.AppendUvarint(dst, mask)
	if mask&hasSeq != 0 {
		dst = binary.AppendUvarint(dst, f.Seq)
	}
	if mask&hasRe != 0 {
		dst = binary.AppendUvarint(dst, f.Re)
	}
	if mask&hasCount != 0 {
		dst = binary.AppendVarint(dst, int64(f.Count))
	}
	if mask&hasNote != 0 {
		dst = appendNote(dst, f.Notification)
	}
	if mask&hasBatch != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(f.Batch)))
		for _, n := range f.Batch {
			dst = appendNote(dst, n)
		}
	}
	if mask&hasRead != 0 {
		r := f.Read
		dst = appendString(dst, r.Topic)
		dst = binary.AppendVarint(dst, int64(r.N))
		dst = binary.AppendVarint(dst, int64(r.QueueSize))
		dst = binary.AppendUvarint(dst, uint64(len(r.ClientEvents)))
		for _, id := range r.ClientEvents {
			dst = appendString(dst, string(id))
		}
		dst = append(dst, boolByte(r.Peek))
	}
	if mask&hasMessage != 0 {
		dst = appendString(dst, f.Message)
	}
	if mask&hasCode != 0 {
		dst = appendString(dst, f.Code)
	}
	if mask&hasTrace != 0 {
		dst = appendTrace(dst, f.Trace)
	}
	if mask&hasTraces != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(f.Traces)))
		for _, t := range f.Traces {
			dst = append(dst, boolByte(t != nil))
			if t != nil {
				dst = appendTrace(dst, t)
			}
		}
	}
	return dst
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendNote appends flags, id, topic, publisher, the rank's eight IEEE 754
// bytes, the times the flags announce, and the payload. A time travels as
// zigzag Unix seconds plus nanoseconds, which covers every time.Time; the
// zero time travels as a cleared flag, so IsZero survives the trip.
func appendNote(dst []byte, n *msg.Notification) []byte {
	if n == nil {
		return append(dst, noteNil)
	}
	var flags byte
	if !n.Published.IsZero() {
		flags |= notePublished
	}
	if !n.Expires.IsZero() {
		flags |= noteExpires
	}
	dst = append(dst, flags)
	dst = appendString(dst, string(n.ID))
	dst = appendString(dst, n.Topic)
	dst = appendString(dst, n.Publisher)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.Rank))
	if flags&notePublished != 0 {
		dst = appendTime(dst, n.Published)
	}
	if flags&noteExpires != 0 {
		dst = appendTime(dst, n.Expires)
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Payload)))
	return append(dst, n.Payload...)
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// appendTrace appends trace ID, origin, and the hops as node plus eight
// bytes of Unix nanoseconds each.
func appendTrace(dst []byte, t *msg.TraceContext) []byte {
	dst = appendString(dst, t.TraceID)
	dst = appendString(dst, t.Origin)
	dst = binary.AppendUvarint(dst, uint64(len(t.Hops)))
	for _, h := range t.Hops {
		dst = appendString(dst, h.Node)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(h.At))
	}
	return dst
}

// encodedSizeHint over-estimates the wire size of one notification inside
// a batch frame, for chunking below maxFrameBytes.
func encodedSizeHint(n *msg.Notification) int {
	const fixed = 64 // flags, four length prefixes, rank, two times
	hint := fixed + len(n.ID) + len(n.Topic) + len(n.Publisher) + len(n.Payload)
	if t := n.Trace; t != nil {
		hint += 16 + len(t.TraceID) + len(t.Origin)
		for _, h := range t.Hops {
			hint += 12 + len(h.Node)
		}
	}
	return hint
}

// splitFrame parses the header of the first frame in b. size is the
// frame's full length on the wire, zero while b does not yet hold all of
// it. An oversized or non-minimal length prefix is an error as soon as its
// bytes are visible, before anything is sized from it.
func splitFrame(b []byte) (kind byte, body []byte, size int, err error) {
	var length, n int
	for ; ; n++ {
		if n == len(b) {
			return 0, nil, 0, nil
		}
		if n == prefixBytes {
			return 0, nil, 0, errFrameTooLong
		}
		length |= int(b[n]&0x7f) << (7 * n)
		if b[n] < 0x80 {
			break
		}
	}
	if n > 0 && b[n] == 0 {
		return 0, nil, 0, errMalformed
	}
	if length > maxFrameBytes {
		return 0, nil, 0, errFrameTooLong
	}
	size = n + 2 + length
	if len(b) < size {
		return 0, nil, 0, nil
	}
	return b[n+1], b[n+2 : size], size, nil
}

// decodeOpts carries per-connection decode resources: the optional
// notification free pool and the topic/publisher intern table. The zero
// value (and a nil pointer) decodes into plain heap notifications and
// fresh strings.
type decodeOpts struct {
	pool  *burst.NotePool
	names map[string]string
}

// maxInternedNames bounds the per-connection intern table so a hostile
// peer cannot grow it without bound.
const maxInternedNames = 1024

// newNote allocates the next notification: from the pool when enabled
// (ownership passes to the frame's consumer), otherwise from the heap.
func (o *decodeOpts) newNote() *msg.Notification {
	if o != nil && o.pool != nil {
		return o.pool.Get()
	}
	return new(msg.Notification)
}

// intern returns a string with v's content, reusing a previously seen
// copy so repeated topic and publisher names cost zero allocations.
func (o *decodeOpts) intern(v []byte) string {
	if o == nil || o.names == nil {
		return string(v)
	}
	if s, ok := o.names[string(v)]; ok {
		return s
	}
	s := string(v)
	if len(o.names) < maxInternedNames {
		o.names[s] = s
	}
	return s
}

// decodeBody fills f from one frame's kind and body. On error f may hold
// pooled notifications — they are attached before their content parses so
// the caller can find and release them.
func decodeBody(kind byte, body []byte, f *Frame, o *decodeOpts) error {
	if kind == kindControl {
		return json.Unmarshal(body, f)
	}
	if kind >= numKinds {
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	f.Type = kindTypes[kind]
	r := bodyReader{b: body}
	mask := r.uvarint()
	if mask&^kindFields[kind] != 0 {
		return errMalformed
	}
	if mask&hasSeq != 0 {
		f.Seq = r.uvarint()
	}
	if mask&hasRe != 0 {
		f.Re = r.uvarint()
	}
	if mask&hasCount != 0 {
		f.Count = r.int()
	}
	if mask&hasNote != 0 {
		f.Notification = o.newNote()
		r.note(f.Notification, r.byte(), o)
	}
	if mask&hasBatch != 0 {
		for i := r.count(1); i > 0 && !r.bad; i-- {
			flags := r.byte()
			if flags == noteNil {
				f.Batch = append(f.Batch, nil)
				continue
			}
			n := o.newNote()
			f.Batch = append(f.Batch, n)
			r.note(n, flags, o)
		}
	}
	if mask&hasRead != 0 {
		req := new(msg.ReadRequest)
		f.Read = req
		req.Topic = o.intern(r.bytes())
		req.N = r.int()
		req.QueueSize = r.int()
		if n := r.count(1); n > 0 {
			req.ClientEvents = make([]msg.ID, 0, n)
			for ; n > 0 && !r.bad; n-- {
				req.ClientEvents = append(req.ClientEvents, msg.ID(r.bytes()))
			}
		}
		req.Peek = r.bool()
	}
	if mask&hasMessage != 0 {
		f.Message = string(r.bytes())
	}
	if mask&hasCode != 0 {
		f.Code = string(r.bytes())
	}
	if mask&hasTrace != 0 {
		f.Trace = r.trace()
	}
	if mask&hasTraces != 0 {
		for i := r.count(1); i > 0 && !r.bad; i-- {
			var t *msg.TraceContext
			if r.bool() {
				t = r.trace()
			}
			f.Traces = append(f.Traces, t)
		}
	}
	if r.bad || len(r.b) != 0 {
		return errMalformed
	}
	return nil
}

// bodyReader consumes a compact body. The first malformed field latches
// bad and empties the input, so every later read yields zero values and
// every count-bounded loop ends; decodeBody checks bad once at the end.
type bodyReader struct {
	b   []byte
	bad bool
}

func (r *bodyReader) fail() {
	r.bad = true
	r.b = nil
}

// uvarint reads a minimally encoded uvarint: truncated, longer than 64
// bits, or padded with a zero final byte are all malformed.
func (r *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a zigzag-encoded integer.
func (r *bodyReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a zigzag integer that must fit this platform's int.
func (r *bodyReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// count reads the number of elements that follow, each at least elemMin
// bytes long: a count the remaining input cannot hold is malformed, which
// also bounds what a hostile count can make the decoder allocate.
func (r *bodyReader) count(elemMin int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/elemMin) {
		r.fail()
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string as a view into the body.
func (r *bodyReader) bytes() []byte {
	n := r.count(1)
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *bodyReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail()
	}
	return v == 1
}

func (r *bodyReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// time reads what appendTime wrote. Decoded times are UTC.
func (r *bodyReader) time() time.Time {
	sec, nsec := r.varint(), r.uvarint()
	if nsec >= uint64(time.Second) {
		r.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// note reads what appendNote wrote after the flags byte; noteNil, which
// only a batch entry may carry, is the caller's to handle. The payload is
// copied into the notification's (possibly pool-retained) buffer.
func (r *bodyReader) note(n *msg.Notification, flags byte, o *decodeOpts) {
	if flags&^(notePublished|noteExpires) != 0 {
		r.fail()
		return
	}
	n.ID = msg.ID(r.bytes())
	n.Topic = o.intern(r.bytes())
	n.Publisher = o.intern(r.bytes())
	n.Rank = math.Float64frombits(r.uint64())
	if flags&notePublished != 0 {
		n.Published = r.time()
	}
	if flags&noteExpires != 0 {
		n.Expires = r.time()
	}
	n.Payload = append(n.Payload[:0], r.bytes()...)
}

func (r *bodyReader) trace() *msg.TraceContext {
	t := &msg.TraceContext{TraceID: string(r.bytes()), Origin: string(r.bytes())}
	if n := r.count(9); n > 0 { // a hop is a length byte and a timestamp at least
		t.Hops = make([]msg.TraceHop, 0, n)
		for ; n > 0 && !r.bad; n-- {
			t.Hops = append(t.Hops, msg.TraceHop{Node: string(r.bytes()), At: int64(r.uint64())})
		}
	}
	return t
}
