package pubsub

import (
	"sync"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// SharedDeliverer is the optional Subscriber extension behind encode-once
// fan-out. A subscriber that implements it receives the broker's own
// notification — no pooled clone, no ownership transfer, valid only for
// the duration of the call — together with the fan-out's SharedEncoding,
// from which it takes a reference to the frame every target shares.
type SharedDeliverer interface {
	Subscriber
	// DeliverShared delivers n without transferring ownership. The
	// subscriber must not retain n or anything reachable from it past the
	// call; bytes it needs later must come from enc (whose buffers are
	// ref-counted) or a copy.
	DeliverShared(n *msg.Notification, enc *SharedEncoding)
}

// SharedEncoding memoizes the encoded frame of one fan-out in one pooled
// buffer. The first subscriber encodes; the rest reuse the bytes. Every
// Buf call hands the caller one reference to release
// (wire.Conn.SendShared consumes it); the memo holds its own reference,
// dropped when the fan-out releases the encoding, so the buffer recycles
// exactly when the last egress ring flushes it.
type SharedEncoding struct {
	buf *burst.Buf
	err error
}

// sharedEncodings recycles SharedEncoding values across fan-outs so wide
// broadcasts stay allocation-flat.
var sharedEncodings = sync.Pool{New: func() any { return new(SharedEncoding) }}

func getSharedEncoding() *SharedEncoding {
	return sharedEncodings.Get().(*SharedEncoding)
}

// putSharedEncoding drops the memo reference and recycles the encoding.
func putSharedEncoding(e *SharedEncoding) {
	if e.buf != nil {
		burst.Bufs.Put(e.buf)
	}
	*e = SharedEncoding{}
	sharedEncodings.Put(e)
}

// Buf returns the shared buffer holding the encoded frame, encoding it on
// the first call: encode receives an empty slice (with whatever capacity
// the pooled buffer retained) and returns the full frame bytes. The
// returned buffer carries one new reference owned by the caller, who must
// release it exactly once — directly with burst.Bufs.Put, or by handing it
// to a consuming sink like wire.Conn.SendShared. An encode failure is
// memoized too, so one oversized frame fails every target identically and
// is encoded once.
func (e *SharedEncoding) Buf(encode func(dst []byte) ([]byte, error)) (*burst.Buf, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.buf == nil {
		b := burst.Bufs.Get()
		out, err := encode(b.B[:0])
		if err != nil {
			burst.Bufs.Put(b)
			e.err = err
			return nil, err
		}
		b.B = out
		e.buf = b
	}
	return e.buf.Ref(), nil
}
