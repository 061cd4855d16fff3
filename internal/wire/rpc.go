package wire

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrConnLost marks request failures caused by the transport rather than
// the remote application: the send failed, the connection died awaiting
// the response, or the client is between connections. Callers with
// auto-reconnect enabled retry these; remote errors are never retried.
var ErrConnLost = errors.New("connection lost")

// errClientClosed is the terminal error after an explicit Close.
var errClientClosed = errors.New("client closed")

// RemoteError is an application-level failure reported by the peer. Code
// is optional and machine-readable (see the Code* constants).
type RemoteError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Message }

// caller implements the request/response half of the protocol shared by
// every client: sequence allocation, pending-response registration, and
// resolution from the read loop. Pushes are handled by the embedding
// client's read loop. Unlike the first generation of this type, the
// underlying connection is replaceable: fail marks it lost, reset installs
// a successor, and awaitOnline parks callers in between.
type caller struct {
	mu      sync.Mutex
	conn    *Conn
	seq     uint64
	pending map[uint64]chan reply
	closed  bool
	connErr error         // transport failure; nil while the conn is live
	dead    error         // terminal: no reconnection will follow
	online  chan struct{} // created on loss, closed on recovery/termination
}

func newCaller(conn *Conn) caller {
	return caller{conn: conn, pending: make(map[uint64]chan reply)}
}

// reply is what a waiting call needs of an OK, Err or Pong frame. resolve
// copies it out (decoded strings are already copies), so no response frame
// leaves the read loop, which reuses one frame for every read.
type reply struct {
	re            uint64
	typ           string
	code, message string
}

// err is the request's outcome: nil, or the peer's application error.
func (r reply) err() error {
	if r.typ == TypeErr {
		return &RemoteError{Code: r.code, Message: r.message}
	}
	return nil
}

// waiter is one call's pooled scratch: the reply channel every frame of
// the call is registered under, the batch's per-frame results, and
// PublishBatch's frames and their positions in the caller's batch.
type waiter struct {
	ch     chan reply
	first  uint64 // sequence of the call's first frame
	errs   []error
	frames []*Frame
	idx    []int
}

var waiters = sync.Pool{New: func() any { return new(waiter) }}

// putWaiter recycles w. Its channel is already nil if it may not be reused
// (see roundTrip).
func putWaiter(w *waiter) {
	clear(w.errs)
	clear(w.frames)
	w.errs, w.frames, w.idx = w.errs[:0], w.frames[:0], w.idx[:0]
	waiters.Put(w)
}

// errAwaiting marks a sent frame whose reply has not arrived yet.
var errAwaiting = errors.New("awaiting response")

// call sends a request, flushed at once, and waits for its OK/Err/Pong
// response. Transport failures are reported as ErrConnLost wraps;
// application failures as *RemoteError.
func (c *caller) call(f *Frame) error {
	w := waiters.Get().(*waiter)
	var errs [1]error
	c.roundTrip(w, []*Frame{f}, errs[:], true)
	putWaiter(w)
	return errs[0]
}

// callBatch pipelines several requests over one connection: every frame is
// registered and buffered before any response is awaited, so the whole
// burst rides a single vectored flush (and the remote's responses coalesce
// the same way coming back). Results are positional and live in w until
// its next call; a transport failure mid-send fails that frame and every
// later one with ErrConnLost.
func (c *caller) callBatch(w *waiter, fs []*Frame) []error {
	w.errs = slices.Grow(w.errs[:0], len(fs))[:len(fs)]
	c.roundTrip(w, fs, w.errs, false)
	return w.errs
}

// roundTrip registers fs under w's reply channel with consecutive
// sequences, sends them (each flushed at once when now is set, otherwise
// left to the flusher to coalesce) and sets errs[i] to the outcome of
// fs[i]. Registration precedes the send, so a fast response cannot race
// it; each response maps back to its frame by sequence (Re − first). A
// frame that was not sent fails with the registration or send error. The
// channel stays in w only if every reply registered on it was taken off
// it: one that fail() closed, or that a reply to an unsent frame may still
// reach (an inline flush can write part of the ring before it fails), is
// dropped.
func (c *caller) roundTrip(w *waiter, fs []*Frame, errs []error, now bool) {
	if cap(w.ch) < len(fs) {
		w.ch = make(chan reply, len(fs))
	}
	sent := 0
	conn, err := c.register(w, fs)
	for err == nil && sent < len(fs) {
		if now {
			err = conn.SendNow(fs[sent])
		} else {
			err = conn.Send(fs[sent])
		}
		if err != nil {
			c.mu.Lock()
			for _, g := range fs[sent:] {
				delete(c.pending, g.Seq)
			}
			c.mu.Unlock()
			err = fmt.Errorf("%w: send: %v", ErrConnLost, err)
		} else {
			sent++
		}
	}
	for j := range errs {
		errs[j] = err
	}
	for j := range sent {
		errs[j] = errAwaiting
	}
	for got := 0; got < sent; {
		r, ok := <-w.ch
		if !ok {
			lost := fmt.Errorf("%w: awaiting response", ErrConnLost)
			for j := range sent {
				if errs[j] == errAwaiting {
					errs[j] = lost
				}
			}
			w.ch = nil
			return
		}
		j := int(r.re - w.first)
		if j < 0 || j >= sent || errs[j] != errAwaiting {
			continue // a reply to a frame whose send failed
		}
		errs[j] = r.err()
		got++
	}
	if sent < len(fs) {
		w.ch = nil
	}
}

// register admits a call's frames: it numbers them consecutively, files
// each under w's channel, and returns the connection to send them on — or,
// when the caller is closed, dead or between connections, the error every
// frame fails with.
func (c *caller) register(w *waiter, fs []*Frame) (*Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.terminalLocked(); err != nil {
		return nil, err
	}
	if c.conn == nil || c.connErr != nil {
		err := c.connErr
		if err == nil {
			err = errors.New("reconnecting")
		}
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	w.first = c.seq + 1
	for _, f := range fs {
		c.seq++
		f.Seq = c.seq
		c.pending[c.seq] = w.ch
	}
	return c.conn, nil
}

// terminalLocked returns the error of a caller that will take no more
// requests (closed, or reconnection abandoned); mu must be held.
func (c *caller) terminalLocked() error {
	if c.closed {
		return errClientClosed
	}
	return c.dead
}

// resolve routes an OK/Err/Pong frame to its waiting call; a response to
// no pending request (a repeated or unknown Re) is dropped. The send
// happens under the lock so fail() cannot close a shared batch channel
// between the lookup and the send; registration sizes every channel's
// buffer to its outstanding responses, so the send never blocks.
func (c *caller) resolve(f *Frame) {
	c.mu.Lock()
	if ch, ok := c.pending[f.Re]; ok {
		delete(c.pending, f.Re)
		ch <- reply{re: f.Re, typ: f.Type, code: f.Code, message: f.Message}
	}
	c.mu.Unlock()
}

// fail records a transport failure and wakes every waiting call. A batch
// registers one channel under many sequences, so closes are deduplicated.
func (c *caller) fail(err error) {
	c.mu.Lock()
	c.connErr = err
	if c.online == nil {
		c.online = make(chan struct{})
	}
	closed := make(map[chan reply]struct{}, len(c.pending))
	for _, ch := range c.pending {
		if _, done := closed[ch]; done {
			continue
		}
		closed[ch] = struct{}{}
		close(ch)
	}
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
}

// markClosed flags the caller closed, reporting whether it already was.
func (c *caller) markClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := c.closed
	c.closed = true
	c.wakeLocked()
	return was
}

// setDead records the terminal error: reconnection has been abandoned.
func (c *caller) setDead(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead == nil {
		c.dead = err
	}
	c.wakeLocked()
}

// isClosed reports whether Close has been called.
func (c *caller) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// currentConn returns the most recently installed connection (which may
// already have failed).
func (c *caller) currentConn() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// reset installs a fresh connection after the previous one died, clearing
// the transport error so calls flow again, and wakes parked callers. It
// reports false — leaving the state untouched except for waking waiters —
// when the client was closed in the meantime.
func (c *caller) reset(conn *Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.wakeLocked()
		return false
	}
	c.conn = conn
	c.connErr = nil
	c.pending = make(map[uint64]chan reply)
	c.wakeLocked()
	return true
}

// revive clears a terminal state (used by explicit Redial after the
// maintenance loop gave up).
func (c *caller) revive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = nil
	c.closed = false
}

// wakeLocked releases every awaitOnline waiter; callers re-check state.
func (c *caller) wakeLocked() {
	if c.online != nil {
		close(c.online)
		c.online = nil
	}
}

// awaitOnline blocks until a live connection is installed, returning the
// terminal error instead if the client closed or gave up reconnecting.
func (c *caller) awaitOnline() error {
	for {
		c.mu.Lock()
		if err := c.terminalLocked(); err != nil || c.conn != nil && c.connErr == nil {
			c.mu.Unlock()
			return err
		}
		ch := c.online
		if ch == nil {
			ch = make(chan struct{})
			c.online = ch
		}
		c.mu.Unlock()
		<-ch
	}
}
