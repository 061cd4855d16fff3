package wire

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/msg"
	"lasthop/internal/trace"
)

// DeviceClient is the mobile client of a ProxyServer: a device.Store (fed by
// proxy pushes) behind a connection, speaking the §3.5 READ protocol —
// offering its best local events so the proxy only transfers better data.
//
// With AutoReconnect enabled the client survives the intermittent last
// hop: a dead connection is re-dialed with backoff, the session is resumed
// (re-identify, re-subscribe, replay the read/queue ID sets so the proxy
// can reconcile in-flight losses), and calls issued during the outage park
// until the link returns.
type DeviceClient struct {
	caller
	name string
	addr string
	opts ClientOptions

	closing chan struct{} // closed by Close; aborts reconnect waits
	exited  chan struct{} // closed when the maintenance loop exits

	smu        sync.Mutex
	store      *device.Store
	policies   map[string]TopicPolicy
	reconnects int
	onPush     func(*msg.Notification)

	now      func() time.Time // the store's clock; tests substitute it
	trimOnce sync.Once        // a shortened resume list is logged once
}

// DialProxy connects and identifies to a proxy server with default
// options: fail-fast, no automatic reconnection.
func DialProxy(addr, name string) (*DeviceClient, error) {
	return DialProxyOpts(addr, name, ClientOptions{})
}

// DialProxyOpts connects and identifies to a proxy server. The initial
// dial is a single attempt (so a wrong address fails immediately);
// opts.AutoReconnect governs what happens when an established connection
// later dies.
func DialProxyOpts(addr, name string, opts ClientOptions) (*DeviceClient, error) {
	d := &DeviceClient{
		name:     name,
		addr:     addr,
		opts:     opts.withDefaults(),
		closing:  make(chan struct{}),
		exited:   make(chan struct{}),
		store:    device.NewStore(0, 0),
		policies: make(map[string]TopicPolicy),
		now:      time.Now,
	}
	conn, err := d.connect()
	if err != nil {
		return nil, fmt.Errorf("dial proxy: %w", err)
	}
	d.caller = newCaller(conn)
	go d.run(conn)
	return d, nil
}

// connect dials and completes the session handshake on a fresh connection.
func (d *DeviceClient) connect() (*Conn, error) {
	conn, err := dialConn(d.addr, d.opts)
	if err != nil {
		return nil, err
	}
	// Pushed notifications are retained by the device store, but the frame
	// carrying them is done once storeAndNotify returns, and resolve copies
	// a response's reply out of it, so one frame serves every read. Topic
	// strings repeat on every push, so they are interned — the pool itself
	// stays off because the store keeps the notifications.
	conn.SetRecvReuse(true)
	conn.SetInternNames(true)
	if err := d.handshake(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake identifies the device and replays its session: every
// subscription is reasserted, and the store's held and consumed IDs are
// resumed so the proxy re-queues anything that was lost in flight and does
// not re-send what the user already consumed. The lists are cut to fit one
// frame (fitResume); an ID cut from them can only come back as a re-forward
// that the store dedups. It runs synchronously on a connection whose read
// loop has not started; racing pushes are applied to the store as they
// arrive.
func (d *DeviceClient) handshake(conn *Conn) error {
	conn.setRawDeadline(time.Now().Add(d.opts.DialTimeout))
	defer conn.setRawDeadline(time.Time{})
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: d.name}, d.applyPushes); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	d.smu.Lock()
	topics := make([]string, 0, len(d.policies))
	for topic := range d.policies {
		topics = append(topics, topic)
	}
	d.smu.Unlock()
	sort.Strings(topics)
	for _, topic := range topics {
		d.smu.Lock()
		pol := d.policies[topic]
		held, consumed := d.store.ResumeIDs(topic)
		d.smu.Unlock()
		if err := syncExchange(conn, &Frame{Type: TypeSubscribe, Topic: topic, TopicPolicy: &pol}, d.applyPushes); err != nil {
			return fmt.Errorf("resubscribe %q: %w", topic, err)
		}
		have, read := fitResume(topic, held, consumed)
		if len(have) < len(held) || len(read) < len(consumed) {
			d.trimOnce.Do(func() {
				d.opts.Logf("wire: device %q: resume %q: %d held and %d consumed IDs do not fit a frame, replaying %d and %d; the rest may be re-forwarded",
					d.name, topic, len(held), len(consumed), len(have), len(read))
			})
		}
		if err := syncExchange(conn, &Frame{Type: TypeResume, Topic: topic, HaveIDs: have, ReadIDs: read}, d.applyPushes); err != nil {
			return fmt.Errorf("resume %q: %w", topic, err)
		}
	}
	return nil
}

// run is the connection maintenance loop: it serves one connection until
// it dies, then — when AutoReconnect is on — re-establishes the session
// with backoff and carries on.
func (d *DeviceClient) run(conn *Conn) {
	defer close(d.exited)
	for {
		stopHB := startPinger(d.opts.HeartbeatInterval, func() error {
			start := time.Now()
			err := d.call(&Frame{Type: TypePing})
			if err == nil && d.opts.Metrics != nil {
				d.opts.Metrics.HeartbeatRTT.Observe(time.Since(start).Seconds())
			}
			return err
		})
		err := d.readFrames(conn)
		stopHB()
		d.fail(err)
		_ = conn.Close()
		if d.isClosed() || !d.opts.AutoReconnect {
			d.setDead(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		d.opts.Logf("wire: device %q: connection lost (%v), reconnecting", d.name, err)
		next, rerr := reconnectLoop(d.addr, d.opts, d.closing, d.connect)
		if rerr != nil {
			d.opts.Logf("wire: device %q: %v", d.name, rerr)
			d.setDead(rerr)
			return
		}
		if next == nil {
			return // closed while reconnecting
		}
		if !d.reset(next) {
			_ = next.Close()
			return
		}
		d.smu.Lock()
		d.reconnects++
		d.smu.Unlock()
		if d.opts.Metrics != nil {
			d.opts.Metrics.Reconnects.Inc()
		}
		d.opts.Logf("wire: device %q: session resumed", d.name)
		conn = next
	}
}

// readFrames dispatches incoming frames until the connection fails.
func (d *DeviceClient) readFrames(conn *Conn) error {
	for {
		f, err := conn.Recv()
		if err != nil {
			return err
		}
		switch f.Type {
		case TypePing:
			_ = conn.Send(&Frame{Type: TypePong, Re: f.Seq})
		case TypeOK, TypeErr, TypePong:
			d.resolve(f)
		default:
			d.applyPushes(f)
		}
	}
}

// applyPushes applies the notifications of a push or push-batch frame to
// the store; other frames carry none.
func (d *DeviceClient) applyPushes(f *Frame) {
	switch f.Type {
	case TypePush:
		if f.Notification != nil {
			f.Notification.Trace = f.Trace
			d.storeAndNotify(f.Notification)
		}
	case TypePushBatch:
		adoptBatchTraces(f)
		for _, n := range f.Batch {
			if n != nil {
				d.storeAndNotify(n)
			}
		}
	}
}

// Close tears the client down. It is idempotent and safe to call
// concurrently with in-flight requests, which fail with a closed error.
func (d *DeviceClient) Close() error {
	if d.markClosed() {
		return nil
	}
	close(d.closing)
	if c := d.currentConn(); c != nil {
		_ = c.Close()
	}
	<-d.exited
	return nil
}

// retry runs op, parking and re-running it across reconnects when the
// transport (not the remote application) failed.
func (d *DeviceClient) retry(op func() error) error {
	for {
		err := op()
		if err == nil || !isConnLost(err) || !d.opts.AutoReconnect {
			return err
		}
		if werr := d.awaitOnline(); werr != nil {
			return werr
		}
	}
}

// traceEvent records a device-side trace event for n; no-op when tracing
// is off.
func (d *DeviceClient) traceEvent(kind trace.Kind, n *msg.Notification, queue, cause string) {
	c := d.opts.Trace
	if c == nil {
		return
	}
	e := trace.Event{
		At: time.Now(), Kind: kind, Topic: n.Topic, ID: n.ID, Rank: n.Rank,
		Node: d.name, Queue: queue, Cause: cause,
	}
	if n.Trace != nil {
		e.TraceID = n.Trace.TraceID
	}
	c.Record(e)
}

// storeAndNotify applies a pushed notification to the store and, when it
// was a first-time delivery (readable or not, but not a revision of
// something held or consumed), invokes the OnPush observer outside the
// state lock.
func (d *DeviceClient) storeAndNotify(n *msg.Notification) {
	d.smu.Lock()
	var cb func(*msg.Notification)
	switch d.store.Accept(n, d.now()) {
	case device.Fresh, device.Unreadable:
		if n.Trace != nil { // Hop would ignore it, but only after time.Now
			d.opts.Trace.Hop(trace.KindDeviceRecv, d.name, n, time.Now())
		}
		cb = d.onPush
	case device.RankDrop:
		d.traceEvent(trace.KindDrop, n, "device", "rank retracted below threshold on the device")
	}
	d.smu.Unlock()
	if cb != nil {
		cb(n)
	}
}

// SetOnPush installs an observer invoked once per first-time delivery
// (rank revisions and resume replays of consumed IDs are filtered out).
// The callback runs on the connection's read goroutine; keep it cheap.
func (d *DeviceClient) SetOnPush(fn func(*msg.Notification)) {
	d.smu.Lock()
	d.onPush = fn
	d.smu.Unlock()
}

// Subscribe registers a topic on the proxy with the given policy. The
// store's threshold and consumed-ID memory for the topic are fixed here,
// before the proxy can push under the subscription, from the history bound
// the policy gives the proxy.
func (d *DeviceClient) Subscribe(topic string, pol TopicPolicy) error {
	d.smu.Lock()
	d.store.Configure(topic, pol.Threshold, pol.proxyHistory())
	d.smu.Unlock()
	err := d.retry(func() error {
		p := pol
		return d.call(&Frame{Type: TypeSubscribe, Topic: topic, TopicPolicy: &p})
	})
	if err != nil {
		return err
	}
	d.smu.Lock()
	d.policies[topic] = pol
	d.smu.Unlock()
	return nil
}

// proxyHistory resolves HistoryLimit the way core.TopicConfig.withDefaults
// does for the proxy's per-topic history: zero is the core default, and the
// result is zero when the history is unbounded.
func (tp TopicPolicy) proxyHistory() int {
	switch {
	case tp.HistoryLimit == 0:
		return core.DefaultHistoryLimit
	case tp.HistoryLimit < 0:
		return 0
	}
	return tp.HistoryLimit
}

// fitResume cuts a resume frame's ID lists to what one frame can carry: the
// oldest consumed IDs go first (consumed is newest first), then the
// lowest-ranked held ones (held is best first). Sizes are upper bounds on
// the JSON encoding, so the frame that results always encodes.
func fitResume(topic string, held, consumed []msg.ID) (have, read []msg.ID) {
	const envelope = 128 // type, seq and the three keys, with room to spare
	budget := maxFrameBytes - envelope - jsonSizeBound(topic)
	fit := func(ids []msg.ID) []msg.ID {
		for i, id := range ids {
			if budget -= jsonSizeBound(string(id)) + 1; budget < 0 {
				return ids[:i]
			}
		}
		return ids
	}
	have = fit(held)
	return have, fit(consumed)
}

// jsonSizeBound bounds the length of s as a quoted JSON string: no escape
// encoding/json emits is longer than six bytes per input byte.
func jsonSizeBound(s string) int {
	n := 2 + len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			n += 5
		}
	}
	return n
}

// Unsubscribe deregisters a topic.
func (d *DeviceClient) Unsubscribe(topic string) error {
	if err := d.retry(func() error { return d.call(&Frame{Type: TypeUnsubscribe, Topic: topic}) }); err != nil {
		return err
	}
	d.smu.Lock()
	delete(d.policies, topic)
	d.smu.Unlock()
	return nil
}

// Redial re-establishes a dead proxy connection, keeping the local
// notification cache (a phone does not forget its messages when the radio
// drops) and replaying the session. It is the manual recovery path for
// clients without AutoReconnect; reconnecting clients do this on their
// own.
func (d *DeviceClient) Redial(addr string) error {
	if d.opts.AutoReconnect {
		return errors.New("redial: client reconnects automatically")
	}
	if c := d.currentConn(); c != nil {
		_ = c.Close()
	}
	<-d.exited // the maintenance loop exits once the connection dies

	d.addr = addr
	conn, err := d.connect()
	if err != nil {
		return fmt.Errorf("redial proxy: %w", err)
	}
	d.revive()
	if !d.reset(conn) {
		_ = conn.Close()
		return errClientClosed
	}
	d.exited = make(chan struct{})
	go d.run(conn)
	return nil
}

// Read performs a user read: it relays the READ request (offering its best
// local IDs), waits for the proxy's pushes to land, and consumes the up-to
// n highest-ranked unexpired local notifications (n == 0 means all). With
// AutoReconnect the read survives connection loss: it is re-issued — with
// a freshly computed offer — once the session resumes.
func (d *DeviceClient) Read(topic string, n int) (batch []*msg.Notification, err error) {
	err = d.retry(func() error {
		batch, err = d.readOnce(topic, n)
		return err
	})
	return batch, err
}

func (d *DeviceClient) readOnce(topic string, n int) ([]*msg.Notification, error) {
	d.smu.Lock()
	d.expireLocked(topic)
	req := d.store.Offer(topic, n)
	d.smu.Unlock()

	// The OK lands after every push of this read (TCP ordering), so the
	// store is complete when call returns.
	if err := d.call(&Frame{Type: TypeRead, Read: &req}); err != nil {
		return nil, err
	}

	d.smu.Lock()
	defer d.smu.Unlock()
	d.expireLocked(topic)
	batch := d.store.Take(topic, n)
	for _, b := range batch {
		d.traceEvent(trace.KindRead, b, "", "")
	}
	return batch, nil
}

func (d *DeviceClient) expireLocked(topic string) {
	d.store.Expire(topic, d.now(), func(n *msg.Notification) {
		d.traceEvent(trace.KindExpire, n, "device", "expired in the device queue before a read")
	})
}

// QueueLen returns the local queue length for a topic.
func (d *DeviceClient) QueueLen(topic string) int {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.store.QueueLen(topic)
}

// ReadSet returns a copy of the consumed IDs the store still remembers on a
// topic.
func (d *DeviceClient) ReadSet(topic string) msg.IDSet {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.store.ReadSet(topic)
}

// Stats returns (received, updates, rank drops applied).
func (d *DeviceClient) Stats() (received, updates, drops int) {
	d.smu.Lock()
	defer d.smu.Unlock()
	st := d.store.Stats
	return st.Received, st.Updates, st.RankDropsApplied
}

// Reconnects reports how many times the session was automatically resumed
// after a connection loss.
func (d *DeviceClient) Reconnects() int {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.reconnects
}

// Topics lists the topics with local state, sorted.
func (d *DeviceClient) Topics() []string {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.store.Topics()
}
