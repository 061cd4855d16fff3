// Package wire is the deployment substrate: a length-prefixed binary
// frame protocol over TCP (see codec.go for the layout) connecting
// publishers and proxies to brokers, and mobile devices to proxies. It
// lets the identical core.Proxy algorithm that drives the simulator run as
// a real service — the paper's §4 plan of "implementing the ideas in a
// real system".
//
// Topology:
//
//	publisher ──┐
//	            ├── BrokerServer ──(BrokerClient)── ProxyServer ──(DeviceClient)── device
//	publisher ──┘
//
// The device⇄proxy TCP connection is the "last hop": while no device is
// connected the proxy considers the network down and spools notifications
// exactly as in the simulation.
package wire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/flight"
	"lasthop/internal/msg"
)

// Frame types exchanged on the wire.
const (
	// Client → server requests.
	TypeHello       = "hello"
	TypeAdvertise   = "advertise"
	TypeWithdraw    = "withdraw"
	TypePublish     = "publish"
	TypeRankUpdate  = "rank-update"
	TypeSubscribe   = "subscribe"
	TypeUnsubscribe = "unsubscribe"
	TypeRead        = "read"
	// TypeResume replays a reconnecting device's per-topic session state
	// (queued and consumed notification IDs) so the proxy can reconcile
	// in-flight losses without duplicating deliveries.
	TypeResume = "resume"
	// TypePing is a liveness probe; the peer answers with TypePong
	// echoing the sequence. Either side may probe.
	TypePing = "ping"

	// Server → client responses and pushes.
	TypeOK   = "ok"
	TypeErr  = "error"
	TypePush = "push"
	// TypePushBatch delivers several notifications in one frame, so a
	// burst of forwards (a read response, a reconnect drain) costs one
	// write instead of one per notification.
	TypePushBatch = "push-batch"
	// TypePushRank delivers a rank revision for an already-pushed
	// notification.
	TypePushRank = "push-rank"
	// TypePong answers a TypePing.
	TypePong = "pong"
)

// Error codes carried by TypeErr frames so clients can react to specific
// failures without parsing message text.
const (
	// CodeDuplicateID marks a publish rejected because the notification
	// ID was already published; a retrying publisher treats it as
	// confirmation that the original attempt landed.
	CodeDuplicateID = "duplicate-id"
)

// Frame is the single wire message shape; unused fields stay empty. Seq
// correlates requests with their OK/Err response (Re echoes the request's
// Seq); pushes carry Seq 0.
type Frame struct {
	Type string `json:"type"`
	Seq  uint64 `json:"seq,omitempty"`
	Re   uint64 `json:"re,omitempty"`

	// Hello.
	Name string `json:"name,omitempty"`

	// Topic-scoped requests.
	Topic     string `json:"topic,omitempty"`
	Publisher string `json:"publisher,omitempty"`

	// Publish / push payloads.
	Notification *msg.Notification `json:"notification,omitempty"`
	RankUpdate   *msg.RankUpdate   `json:"rankUpdate,omitempty"`

	// Batch carries the notifications of a TypePushBatch frame.
	Batch []*msg.Notification `json:"batch,omitempty"`

	// Trace carries the distributed-tracing context of Notification on
	// publish/push frames; Traces aligns 1:1 with Batch on push-batch
	// frames (null entries mark unsampled notifications).
	Trace  *msg.TraceContext   `json:"trace,omitempty"`
	Traces []*msg.TraceContext `json:"traces,omitempty"`

	// Subscribe payload (broker) and topic policy (proxy).
	Subscription *msg.Subscription `json:"subscription,omitempty"`
	TopicPolicy  *TopicPolicy      `json:"topicPolicy,omitempty"`

	// Read payload and its result count.
	Read  *msg.ReadRequest `json:"read,omitempty"`
	Count int              `json:"count,omitempty"`

	// Resume payload: the device's local queue contents and consumed IDs
	// for Topic.
	HaveIDs []msg.ID `json:"haveIDs,omitempty"`
	ReadIDs []msg.ID `json:"readIDs,omitempty"`

	// Error message and machine-readable code for TypeErr.
	Message string `json:"message,omitempty"`
	Code    string `json:"code,omitempty"`
}

// adoptBatchTraces reattaches the trace contexts of a push-batch frame to
// its notifications. Entries are matched by index; a short, missing, or
// hostile-length Traces slice simply leaves the remaining notifications
// unsampled.
func adoptBatchTraces(f *Frame) {
	if len(f.Traces) == 0 {
		return
	}
	for i, n := range f.Batch {
		if n != nil && i < len(f.Traces) {
			n.Trace = f.Traces[i]
		}
	}
}

// TopicPolicy is the device-facing subset of core.TopicConfig a device may
// select when subscribing through a proxy.
type TopicPolicy struct {
	// Mode is "on-line" or "on-demand" (default).
	Mode string `json:"mode,omitempty"`
	// Policy is "online", "on-demand", "buffer", or "rate"; empty
	// defaults to the unified buffer policy with auto tuning.
	Policy string `json:"policy,omitempty"`
	// Max and Threshold are the subscriber's volume limits.
	Max       int     `json:"max,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// PrefetchLimit fixes the buffer policy's limit; zero auto-tunes.
	PrefetchLimit int `json:"prefetchLimit,omitempty"`
	// DelaySeconds holds fresh notifications back for rank retractions.
	DelaySeconds float64 `json:"delaySeconds,omitempty"`
	// InterruptRank lets an on-demand topic interrupt for urgent
	// content (§2.2); zero disables it.
	InterruptRank float64 `json:"interruptRank,omitempty"`
	// DailyOnlineCap bounds on-line pushes per day; zero means no cap.
	DailyOnlineCap int `json:"dailyOnlineCap,omitempty"`
	// HistoryLimit bounds the proxy's per-topic retained history (the
	// dedup/rank-revision window); zero keeps the core default, negative
	// means unbounded. Sessions that deliver at high volume retain one
	// pooled notification per history entry, so a bounded history is what
	// lets the notification pool recycle at steady state.
	HistoryLimit int `json:"historyLimit,omitempty"`
	// QuietWindows silence on-line delivery during daily windows,
	// expressed as minutes from midnight.
	QuietWindows []QuietWindowSpec `json:"quietWindows,omitempty"`
}

// QuietWindowSpec is a daily quiet window in minutes from midnight.
type QuietWindowSpec struct {
	StartMinutes int `json:"startMinutes"`
	EndMinutes   int `json:"endMinutes"`
}

// Conn wraps a net.Conn with frame encoding, write locking, sequence
// numbering, and optional liveness deadlines. Reads must be performed by a
// single goroutine.
//
// Writes ride a per-connection egress ring: Send encodes the frame into a
// pooled buffer, appends it to the ring, and signals the flusher
// goroutine, which drains the whole ring in one vectored write
// (net.Buffers → writev on TCP). Frames queued while a flush syscall is
// in flight coalesce into the next one (group commit) without ever being
// copied into an intermediate write buffer. SendNow and SendRequest flush
// before returning — a request's caller blocks on the response anyway, so
// its frame should hit the wire immediately. A write error is latched and
// reported by every subsequent send.
type Conn struct {
	c net.Conn
	r *frameReader

	// readTimeout bounds the silence tolerated between frames: each Recv
	// arms a deadline this far in the future, so a half-open connection
	// fails instead of hanging forever. Zero disables it.
	readTimeout time.Duration
	// writeTimeout bounds each flush, so a peer that stopped draining its
	// socket cannot block the writer indefinitely. Zero disables it.
	writeTimeout time.Duration

	wmu  sync.Mutex
	seq  uint64
	werr error // first write/flush failure; latched

	// The egress ring (wmu-guarded): encoded frames awaiting the next
	// vectored flush. ring owns the pooled buffers; vecs is the scratch
	// net.Buffers rebuilt for each writev, and unsent is the header WriteTo
	// consumes in place. unsent lives here rather than on the stack because
	// WriteTo's pointer receiver reaches the socket through an interface,
	// which would move a local copy to the heap on every flush.
	ring      []*burst.Buf
	ringBytes int
	vecs      net.Buffers
	unsent    net.Buffers

	// m aggregates wire metrics; nil disables instrumentation.
	// firstBuffered (wmu-guarded) records when the current ring started
	// filling, feeding the flush-coalescing histogram.
	m             *Metrics
	firstBuffered time.Time
	flushes       atomic.Uint64 // socket flushes performed (tests: idle ⇒ no flushes)

	// Stall telemetry for the flusher watchdog probe, maintained
	// unconditionally (unlike firstBuffered, which needs metrics):
	// pendBytes is what the ring holds, pendSinceNs when it started
	// holding it. Written under wmu, read lock-free by the probe while
	// the flusher may be wedged inside WriteTo holding wmu.
	pendBytes   atomic.Int64
	pendSinceNs atomic.Int64

	// Receive-side options; single reader goroutine, no locking.
	recvPooled bool   // decode notifications out of burst.Notes
	recvFrame  *Frame // reused across Recv calls; nil allocates per call
	dec        decodeOpts

	flushC    chan struct{} // kicks the flusher; capacity 1
	done      chan struct{} // closed by Close; stops the flusher
	closeOnce sync.Once
}

// readBufferBytes is the initial size of the per-connection read buffer;
// it grows on demand to hold one maximal frame.
const readBufferBytes = 64 * 1024

// Egress-ring bounds: once either is hit, the writer flushes inline,
// which is the natural backpressure (matching the old write-buffer-full
// degradation to a synchronous flush).
const (
	maxRingFrames = 64
	maxRingBytes  = 256 * 1024
)

// socketBufferBytes bounds the kernel's send and receive buffer of every
// TCP connection at two reader refills: one being decoded while the next
// arrives. Anything more is a standing queue of notifications that neither
// end can rank, expire or retract any more, and since the bound is in
// bytes, the smaller the frames the more notifications wait in it. Linux
// doubles the request and, at the default tcp_adv_win_scale of 1, advertises
// half of that, so the window is exactly this many bytes. On a 2-core box,
// fanout-burst's latency_p50_ms read ~600 ms at 512 KiB and ~140 ms here;
// one refill (64 KiB) cut it further but starved the host's upstream reader
// (throughput -8 %), and 16 KiB fell under loopback's 64 KiB MSS
// (throughput /12). Only the send or only the receive side, or only the
// device-facing connections, left the backlog where it was.
const socketBufferBytes = 2 * readBufferBytes

// conns registers every live connection for the flusher stall probe;
// entries leave on Close.
var conns sync.Map // *Conn → struct{}

// NewConn wraps an established network connection, bounding its socket
// buffers when it is a TCP connection (wrapped test transports keep theirs).
func NewConn(c net.Conn) *Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Best effort: a refused bound leaves the kernel's default.
		_ = tc.SetReadBuffer(socketBufferBytes)
		_ = tc.SetWriteBuffer(socketBufferBytes)
	}
	conn := &Conn{
		c:      c,
		r:      newFrameReader(c),
		flushC: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	conns.Store(conn, struct{}{})
	go conn.flushLoop()
	return conn
}

// FlusherStallProbe returns a watchdog probe that trips when any live
// connection has held at least minBytes in its egress ring for longer
// than maxAge without a flush completing — the signature of a flusher
// wedged in a blocked writev (peer stopped draining, missing write
// deadline) or of a parked flusher that lost its kick. The probe reads
// only per-connection atomics; it never takes wmu.
func FlusherStallProbe(maxAge time.Duration, minBytes int64) flight.Probe {
	return flight.Probe{Name: "flusher-pending", Component: flight.SubFlush.String(), Check: func() error {
		var stalled error
		conns.Range(func(k, _ any) bool {
			c := k.(*Conn)
			since := c.pendSinceNs.Load()
			bytes := c.pendBytes.Load()
			if since == 0 || bytes < minBytes {
				return true
			}
			if age := time.Since(time.Unix(0, since)); age > maxAge {
				stalled = fmt.Errorf("conn %s: %d bytes unflushed for %v (max %v)",
					c.RemoteAddr(), bytes, age.Round(time.Millisecond), maxAge)
				flight.Record(flight.SubFlush, flight.KindStall, -1, int64(age), bytes)
				return false
			}
			return true
		})
		return stalled
	}}
}

// flushLoop is the connection's flusher goroutine: it parks until a Send
// kicks it — no idle-timer wakeups — then writes out whatever has
// accumulated. All frames queued between two wakeups leave in one
// vectored syscall.
func (c *Conn) flushLoop() {
	for {
		select {
		case <-c.done:
			return
		case <-c.flushC:
		}
		c.wmu.Lock()
		c.flushLocked()
		c.wmu.Unlock()
	}
}

// flushLocked arms the write deadline and drains the egress ring; wmu
// must be held.
func (c *Conn) flushLocked() {
	if len(c.ring) == 0 {
		return
	}
	if c.writeTimeout > 0 && c.werr == nil {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	c.flushRingLocked()
}

// flushRingLocked drains the egress ring in one vectored write under
// whatever deadline the caller armed; wmu must be held. The pooled
// buffers return to the pool afterwards, written or not (a latched error
// drops them — the session-resume protocol tolerates the loss).
func (c *Conn) flushRingLocked() {
	if len(c.ring) == 0 {
		return
	}
	if c.werr == nil {
		if c.m != nil {
			c.m.FlushFrames.Observe(float64(len(c.ring)))
			c.m.FlushCoalesce.Observe(time.Since(c.firstBuffered).Seconds())
		}
		c.vecs = c.vecs[:0]
		for _, b := range c.ring {
			c.vecs = append(c.vecs, b.B)
		}
		// WriteTo advances unsent in place (one writev per IOV_MAX chunk on
		// TCP); the backing buffers stay owned by the ring.
		c.unsent = c.vecs
		if _, err := c.unsent.WriteTo(c.c); err != nil {
			c.werr = err
		}
		c.unsent = nil
		c.flushes.Add(1)
		flight.Record(flight.SubFlush, flight.KindFlush, -1, int64(len(c.ring)), int64(c.ringBytes))
	}
	for i, b := range c.ring {
		burst.Bufs.Put(b)
		c.ring[i] = nil
	}
	c.ring = c.ring[:0]
	c.ringBytes = 0
	c.vecs = c.vecs[:0]
	c.pendBytes.Store(0)
	c.pendSinceNs.Store(0)
}

// Flushes returns the number of socket flushes this connection performed.
func (c *Conn) Flushes() uint64 { return c.flushes.Load() }

// kickFlush wakes the flusher without blocking; a pending kick suffices.
func (c *Conn) kickFlush() {
	select {
	case c.flushC <- struct{}{}:
	default:
	}
}

// SetTimeouts configures the liveness deadlines: read bounds the silence
// between received frames, write bounds each Send. Zero disables either.
// Call before the connection is shared between goroutines.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	c.readTimeout = read
	c.writeTimeout = write
}

// SetMetrics attaches a wire metrics set; nil leaves the connection
// uninstrumented. Call before the connection is shared between goroutines.
func (c *Conn) SetMetrics(m *Metrics) {
	c.m = m
	c.r.m = m
}

// SetNotePool enables pooled notification decode: push and publish
// notifications arriving on this connection are checked out of
// burst.Notes (with per-connection topic/publisher string interning), and
// ownership transfers to whoever consumes the frame — that consumer must
// eventually burst.Notes.Put each one. Only enable on connections whose
// read loop honors that contract (broker servers and broker clients, not
// device clients, whose notifications are retained by the application).
// Call before the connection is shared between goroutines.
func (c *Conn) SetNotePool(on bool) {
	c.recvPooled = on
	if on {
		c.dec.pool = burst.Notes
		if c.dec.names == nil {
			c.dec.names = make(map[string]string)
		}
	} else {
		c.dec.pool = nil
	}
}

// SetRecvReuse makes Recv return the same *Frame every call, resetting it
// first. Only enable when the read loop finishes with each frame (and
// everything reachable from it, notifications excepted — see SetNotePool)
// before the next Recv. Call before the connection is shared between
// goroutines.
func (c *Conn) SetRecvReuse(on bool) {
	c.recvFrame = nil
	if on {
		c.recvFrame = new(Frame)
	}
}

// SetInternNames gives the decoder a per-connection intern table for
// topic and publisher strings without enabling the notification pool —
// the right mode for device clients, which retain decoded notifications
// (so pooling is wrong) but see the same few topics on every push. Call
// before the connection is shared between goroutines.
func (c *Conn) SetInternNames(on bool) {
	if on {
		if c.dec.names == nil {
			c.dec.names = make(map[string]string)
		}
	} else if c.dec.pool == nil {
		c.dec.names = nil
	}
}

// closeFlushTimeout bounds the best-effort drain of buffered frames during
// Close; a peer that stopped reading cannot stall teardown longer.
const closeFlushTimeout = 100 * time.Millisecond

// Close stops the flusher and closes the underlying connection, draining
// any queued frames first (briefly, best effort — an unresponsive peer
// loses them, which the session-resume protocol already tolerates). The
// closed state is latched as the write error, so a Send racing Close fails
// and releases its buffer instead of parking it on a ring nobody drains.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		conns.Delete(c)
		close(c.done)
		c.wmu.Lock()
		if len(c.ring) > 0 {
			_ = c.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
			c.flushRingLocked()
		}
		if c.werr == nil {
			c.werr = net.ErrClosed
		}
		c.wmu.Unlock()
	})
	return c.c.Close()
}

// setRawDeadline bounds every pending and future I/O operation on the
// underlying connection (both directions); the zero time clears it. Used
// to bound multi-frame handshakes as a whole.
func (c *Conn) setRawDeadline(t time.Time) { _ = c.c.SetDeadline(t) }

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// Send buffers one frame and wakes the flusher; it coalesces with other
// frames in flight. Use it for pushes and responses, where the sender does
// not wait on the peer.
func (c *Conn) Send(f *Frame) error {
	c.wmu.Lock()
	err := c.writeLocked(f)
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.kickFlush()
	return nil
}

// SendShared enqueues an already-encoded frame buffer (appendFrame's
// output) on the egress ring, consuming exactly one of the caller's
// references: on success the ring's flush releases it (the pool recycles
// it on the last reference), and on a latched write error it is released
// here. The same buffer may be queued on many connections at once — encode
// once, Ref per extra connection — which is the broadcast fan-out fast path.
func (c *Conn) SendShared(b *burst.Buf) error {
	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		burst.Bufs.Put(b)
		return err
	}
	if c.m != nil {
		c.m.FramesOut.Inc()
		c.m.BytesOut.Add(int64(len(b.B)))
		if len(c.ring) == 0 {
			c.firstBuffered = time.Now()
		}
	}
	c.ring = append(c.ring, b)
	c.ringBytes += len(b.B)
	if c.pendBytes.Add(int64(len(b.B))) == int64(len(b.B)) {
		c.pendSinceNs.Store(time.Now().UnixNano())
	}
	if len(c.ring) >= maxRingFrames || c.ringBytes >= maxRingBytes {
		c.flushLocked()
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	c.wmu.Unlock()
	c.kickFlush()
	return nil
}

// SendRelease sends a transient frame and returns it to the frame pool.
// Send encodes synchronously, so the frame is free the moment it returns;
// the caller must not touch f afterwards. Intended for responses built by
// OK/Err and other fire-and-forget frames whose lifetime ends here.
func (c *Conn) SendRelease(f *Frame) error {
	err := c.Send(f)
	putPushFrame(f)
	return err
}

// SendNow writes one frame and flushes it to the wire before returning.
// Use it for requests, whose caller blocks on the response.
func (c *Conn) SendNow(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeLocked(f); err != nil {
		return err
	}
	c.flushLocked()
	return c.werr
}

// SendRequest assigns a fresh sequence number and writes the frame through
// to the wire, returning the sequence for correlation.
func (c *Conn) SendRequest(f *Frame) (uint64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.seq++
	f.Seq = c.seq
	if err := c.writeLocked(f); err != nil {
		return 0, err
	}
	c.flushLocked()
	if c.werr != nil {
		return 0, c.werr
	}
	return f.Seq, nil
}

// writeLocked encodes f into a pooled buffer and appends it to the egress
// ring; wmu must be held. When the ring reaches its bounds the writer
// flushes inline, which is the backpressure path.
func (c *Conn) writeLocked(f *Frame) error {
	if c.werr != nil {
		return c.werr
	}
	buf := burst.Bufs.Get()
	b, err := appendFrame(buf.B[:0], f)
	buf.B = b
	if err != nil {
		burst.Bufs.Put(buf)
		return err
	}
	if c.m != nil {
		c.m.FramesOut.Inc()
		c.m.BytesOut.Add(int64(len(b)))
		if len(c.ring) == 0 {
			c.firstBuffered = time.Now()
		}
	}
	c.ring = append(c.ring, buf)
	c.ringBytes += len(b)
	if c.pendBytes.Add(int64(len(b))) == int64(len(b)) {
		c.pendSinceNs.Store(time.Now().UnixNano())
	}
	if len(c.ring) >= maxRingFrames || c.ringBytes >= maxRingBytes {
		c.flushLocked()
		return c.werr
	}
	return nil
}

// Recv reads the next frame. With SetRecvReuse the returned frame is only
// valid until the next Recv; with SetNotePool its notifications are
// pool-owned and the consumer must Put them.
func (c *Conn) Recv() (*Frame, error) {
	if c.readTimeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	kind, body, size, err := c.r.next()
	if err != nil {
		return nil, err
	}
	f := c.recvFrame
	if f != nil {
		resetFrame(f)
	} else {
		f = new(Frame)
	}
	if err := decodeBody(kind, body, f, &c.dec); err != nil {
		releaseFrameNotes(f)
		resetFrame(f)
		return nil, fmt.Errorf("bad frame: %w", err)
	}
	if c.m != nil {
		c.m.FramesIn.Inc()
		c.m.BytesIn.Add(int64(size))
	}
	return f, nil
}

// resetFrame zeroes a frame for reuse, keeping the batch slices'
// capacity. Notification pointers are simply dropped: ownership
// transferred to the consumer on the previous iteration.
func resetFrame(f *Frame) {
	batch := f.Batch[:0]
	traces := f.Traces[:0]
	*f = Frame{}
	f.Batch = batch
	f.Traces = traces
}

// releaseFrameNotes returns every notification reachable from a partially
// decoded frame to the pool (no-ops for pool-foreign ones).
func releaseFrameNotes(f *Frame) {
	burst.Notes.Put(f.Notification)
	for _, n := range f.Batch {
		burst.Notes.Put(n)
	}
}

// frameReader cuts length-prefixed frames out of a growable read buffer,
// one read syscall per refill: a burst that arrives in one TCP segment
// yields N frames decoded directly from the same buffer, with no
// intermediate copies. Bodies returned by next are views into the buffer,
// valid until the following call.
type frameReader struct {
	c          net.Conn
	buf        []byte
	start, end int
	sinceFill  int      // frames returned since the last fill, for ReadBurst
	m          *Metrics // nil disables instrumentation
	sawEOF     bool
}

func newFrameReader(c net.Conn) *frameReader {
	return &frameReader{c: c, buf: make([]byte, readBufferBytes)}
}

// next returns the next frame's kind and body, and its full size on the
// wire (prefix and kind included). EOF inside a frame is an error like
// EOF between frames: a frame either arrives whole or not at all.
func (r *frameReader) next() (kind byte, body []byte, size int, err error) {
	for {
		kind, body, size, err = splitFrame(r.buf[r.start:r.end])
		if err != nil {
			return 0, nil, 0, err
		}
		if size > 0 {
			r.start += size
			r.sinceFill++
			return kind, body, size, nil
		}
		if r.sawEOF {
			return 0, nil, 0, fmt.Errorf("connection closed")
		}
		if r.start > 0 {
			copy(r.buf, r.buf[r.start:r.end])
			r.end -= r.start
			r.start = 0
		}
		if r.end == len(r.buf) {
			// Only a frame longer than the buffer gets here, and splitFrame
			// has already bounded its length.
			nb := make([]byte, min(2*len(r.buf), maxWireBytes))
			copy(nb, r.buf[:r.end])
			r.buf = nb
		}
		if r.m != nil && r.sinceFill > 0 {
			r.m.ReadBurst.Observe(float64(r.sinceFill))
		}
		r.sinceFill = 0
		n, err := r.c.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			if err == io.EOF {
				r.sawEOF = true
				continue
			}
			if n > 0 {
				// Cut what arrived; a persistent error resurfaces on the
				// next empty read.
				continue
			}
			return 0, nil, 0, err
		}
	}
}

// framePool recycles the transient Frame values built for pushes and
// responses, whose lifetime ends when Send returns. (Encode buffers live in
// burst.Bufs, shared with the egress ring.)
var framePool = sync.Pool{New: func() any { return new(Frame) }}

func getPushFrame() *Frame { return framePool.Get().(*Frame) }

func putPushFrame(f *Frame) {
	*f = Frame{}
	framePool.Put(f)
}

// OK builds a success response to the given request frame. The frame
// comes from the shared frame pool; send it with SendRelease to recycle
// it (plain Send merely forgoes the reuse).
func OK(re *Frame) *Frame {
	f := getPushFrame()
	f.Type = TypeOK
	f.Re = re.Seq
	return f
}

// Err builds an error response to the given request frame. Pooled like
// OK; see SendRelease.
func Err(re *Frame, err error) *Frame {
	f := getPushFrame()
	f.Type = TypeErr
	f.Re = re.Seq
	f.Message = err.Error()
	return f
}
