package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// ServerOptions tunes a server's per-connection liveness deadlines.
type ServerOptions struct {
	// ReadTimeout bounds the silence tolerated on a client connection;
	// clients must send (heartbeats count) within this bound or be
	// disconnected. Zero disables it.
	ReadTimeout time.Duration
	// WriteTimeout bounds each push or response write so a stalled client
	// cannot block the server. Zero disables it.
	WriteTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(string, ...any)
	// Metrics aggregates wire-level instrumentation across all accepted
	// connections; nil disables it.
	Metrics *Metrics
}

// BrokerServer exposes a pubsub.Broker over TCP. Each connection may
// advertise, publish, and subscribe; subscribed connections receive push
// frames.
type BrokerServer struct {
	broker *pubsub.Broker
	opts   ServerOptions
	logf   func(format string, args ...any)

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[*Conn]struct{}
	wg     sync.WaitGroup
}

// NewBrokerServer wraps a broker. A nil logf silences logging.
func NewBrokerServer(b *pubsub.Broker, logf func(string, ...any)) *BrokerServer {
	return NewBrokerServerOpts(b, ServerOptions{Logf: logf})
}

// NewBrokerServerOpts wraps a broker with connection liveness options.
func NewBrokerServerOpts(b *pubsub.Broker, opts ServerOptions) *BrokerServer {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &BrokerServer{broker: b, opts: opts, logf: opts.Logf, conns: make(map[*Conn]struct{})}
}

// Serve accepts connections until the listener closes. After an explicit
// Close it returns nil; otherwise it returns the accept error.
func (s *BrokerServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("broker server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		conn := NewConn(c)
		conn.SetTimeouts(s.opts.ReadTimeout, s.opts.WriteTimeout)
		conn.SetMetrics(s.opts.Metrics)
		// Server read loops consume each frame synchronously before the
		// next Recv, so both ingest optimizations are safe here: decoded
		// notifications come from the burst pool (handle releases them)
		// and the Frame itself is reused across reads.
		conn.SetNotePool(true)
		conn.SetRecvReuse(true)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *BrokerServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, closes every connection, and waits for handlers.
// It is idempotent.
func (s *BrokerServer) Close() {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// connSubscriber adapts a wire connection to pubsub.Subscriber. A
// sampled notification's trace context rides in its push frame.
type connSubscriber struct {
	conn *Conn
}

var (
	_ pubsub.Subscriber      = connSubscriber{}
	_ pubsub.SharedDeliverer = connSubscriber{}
)

func (cs connSubscriber) Deliver(n *msg.Notification) {
	f := getPushFrame()
	f.Type = TypePush
	f.Notification = n
	f.Trace = n.Trace
	_ = cs.conn.Send(f)
	putPushFrame(f)
	// Send encoded the notification into the egress ring synchronously;
	// this subscriber owns the pooled clone and is done with it.
	burst.Notes.Put(n)
}

// DeliverShared is the encode-once fan-out path: the push frame is
// encoded once for the whole fan-out, and this connection's egress ring
// enqueues the shared ref-counted buffer. The notification stays owned by
// the broker — no clone, no Put. An encode fails only on the frame bound,
// and then fails for every target alike, so the notification is skipped
// here as Send would skip it (without latching the connection).
func (cs connSubscriber) DeliverShared(n *msg.Notification, enc *pubsub.SharedEncoding) {
	buf, err := enc.Buf(func(dst []byte) ([]byte, error) {
		f := getPushFrame()
		f.Type = TypePush
		f.Notification = n
		f.Trace = n.Trace
		b, err := appendFrame(dst, f)
		putPushFrame(f)
		return b, err
	})
	if err != nil {
		return
	}
	_ = cs.conn.SendShared(buf)
}

func (cs connSubscriber) DeliverRankUpdate(u msg.RankUpdate) {
	_ = cs.conn.Send(&Frame{Type: TypePushRank, RankUpdate: &u})
}

func (s *BrokerServer) handle(conn *Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	clientName := conn.RemoteAddr()
	self := connSubscriber{conn: conn}
	// The (topic, subscriber) pairs this connection bound. Cleanup removes
	// only those still bound to it: a newer connection that re-subscribed
	// under the same name keeps its delivery.
	var bound []msg.Subscription
	defer func() {
		for _, b := range bound {
			s.broker.Unbind(b.Topic, b.Subscriber, self)
		}
	}()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case TypeHello:
			if f.Name != "" {
				clientName = f.Name
			}
			s.respond(conn, OK(f))
		case TypePing:
			s.respond(conn, &Frame{Type: TypePong, Re: f.Seq})
		case TypeAdvertise:
			s.respondErr(conn, f, s.broker.Advertise(f.Topic, orDefault(f.Publisher, clientName)))
		case TypeWithdraw:
			s.respondErr(conn, f, s.broker.Withdraw(f.Topic, orDefault(f.Publisher, clientName)))
		case TypePublish:
			if f.Notification == nil {
				s.respond(conn, Err(f, errors.New("publish frame without notification")))
				continue
			}
			// A publisher may pre-attach a trace context; otherwise the
			// broker's head sampler decides at accept time.
			f.Notification.Trace = f.Trace
			err := s.broker.Publish(f.Notification)
			// Publish is synchronous and retains nothing: subscribers got
			// pooled clones or a shared encoding. The ingress
			// note goes back to the pool whether the publish was accepted,
			// rejected as a duplicate by the seen set, or failed.
			burst.Notes.Put(f.Notification)
			f.Notification = nil
			s.respondErr(conn, f, err)
		case TypeRankUpdate:
			if f.RankUpdate == nil {
				s.respond(conn, Err(f, errors.New("rank-update frame without update")))
				continue
			}
			s.respondErr(conn, f, s.broker.PublishRankUpdate(*f.RankUpdate))
		case TypeSubscribe:
			if f.Subscription == nil {
				s.respond(conn, Err(f, errors.New("subscribe frame without subscription")))
				continue
			}
			sub := *f.Subscription
			if sub.Subscriber == "" {
				sub.Subscriber = clientName
			}
			// Re-subscribing with the same subscriber name rebinds delivery
			// to this connection — exactly what a resuming client needs.
			err := s.broker.Subscribe(sub, self)
			if err == nil {
				bound = append(bound, sub)
			}
			s.respondErr(conn, f, err)
		case TypeUnsubscribe:
			s.respondErr(conn, f, s.broker.Unsubscribe(f.Topic, clientName))
		default:
			s.respond(conn, Err(f, fmt.Errorf("unsupported frame type %q", f.Type)))
		}
	}
}

func (s *BrokerServer) respond(conn *Conn, f *Frame) {
	if err := conn.SendRelease(f); err != nil {
		s.logf("broker: send response: %v", err)
	}
}

func (s *BrokerServer) respondErr(conn *Conn, req *Frame, err error) {
	if err != nil {
		f := Err(req, err)
		if errors.Is(err, pubsub.ErrDuplicateID) {
			f.Code = CodeDuplicateID
		}
		s.respond(conn, f)
		return
	}
	s.respond(conn, OK(req))
}

func orDefault(v, fallback string) string {
	if v != "" {
		return v
	}
	return fallback
}

// BrokerClient is the client side of the broker protocol, used by
// publishers and by proxies. With AutoReconnect enabled it survives broker
// connection loss: it re-dials with backoff, re-identifies, and replays
// its advertisements and subscriptions.
type BrokerClient struct {
	caller
	name string
	addr string
	opts ClientOptions

	closing chan struct{}
	exited  chan struct{}

	cbmu   sync.Mutex
	onPush func(*msg.Notification)
	onRank func(msg.RankUpdate)

	smu        sync.Mutex
	advertised map[string]string // topic -> publisher
	subs       map[string]msg.Subscription
	reconnects int
}

// DialBroker connects and identifies to a broker server with default
// options: fail-fast, no automatic reconnection.
func DialBroker(addr, name string) (*BrokerClient, error) {
	return DialBrokerOpts(addr, name, ClientOptions{})
}

// DialBrokerOpts connects and identifies to a broker server. The initial
// dial is a single attempt; opts.AutoReconnect governs what happens when
// an established connection later dies.
func DialBrokerOpts(addr, name string, opts ClientOptions) (*BrokerClient, error) {
	c := &BrokerClient{
		name:       name,
		addr:       addr,
		opts:       opts.withDefaults(),
		closing:    make(chan struct{}),
		exited:     make(chan struct{}),
		advertised: make(map[string]string),
		subs:       make(map[string]msg.Subscription),
	}
	conn, err := c.connect()
	if err != nil {
		return nil, fmt.Errorf("dial broker: %w", err)
	}
	c.caller = newCaller(conn)
	go c.run(conn)
	return c, nil
}

// connect dials and completes the session handshake on a fresh connection.
func (c *BrokerClient) connect() (*Conn, error) {
	conn, err := dialConn(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	// Pushes decode into pooled notifications; dispatchPush transfers them
	// to the registered callback (which inherits the release duty) or
	// returns them itself. The frame is reused across every read: resolve
	// copies a response's reply out of it.
	conn.SetNotePool(true)
	conn.SetRecvReuse(true)
	if err := c.handshake(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake identifies the client and replays its advertisements and
// subscriptions, so a reconnecting publisher keeps its topic claims and a
// reconnecting subscriber keeps receiving pushes. Pushes racing the
// handshake are dispatched to the callbacks.
func (c *BrokerClient) handshake(conn *Conn) error {
	conn.setRawDeadline(time.Now().Add(c.opts.DialTimeout))
	defer conn.setRawDeadline(time.Time{})
	onFrame := func(f *Frame) { c.dispatchPush(f) }
	if err := syncExchange(conn, &Frame{Type: TypeHello, Name: c.name}, onFrame); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	type claim struct{ topic, publisher string }
	c.smu.Lock()
	claims := make([]claim, 0, len(c.advertised))
	for topic, pub := range c.advertised {
		claims = append(claims, claim{topic, pub})
	}
	subs := make([]msg.Subscription, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.smu.Unlock()
	sort.Slice(claims, func(i, j int) bool { return claims[i].topic < claims[j].topic })
	sort.Slice(subs, func(i, j int) bool { return subs[i].Topic < subs[j].Topic })
	// Re-advertising by the same publisher is idempotent at the broker.
	for _, cl := range claims {
		if err := syncExchange(conn, &Frame{Type: TypeAdvertise, Topic: cl.topic, Publisher: cl.publisher}, onFrame); err != nil {
			return fmt.Errorf("readvertise %q: %w", cl.topic, err)
		}
	}
	for _, sub := range subs {
		s := sub
		if err := syncExchange(conn, &Frame{Type: TypeSubscribe, Subscription: &s}, onFrame); err != nil {
			return fmt.Errorf("resubscribe %q: %w", sub.Topic, err)
		}
	}
	return nil
}

// run is the connection maintenance loop.
func (c *BrokerClient) run(conn *Conn) {
	defer close(c.exited)
	for {
		stopHB := startPinger(c.opts.HeartbeatInterval, func() error {
			start := time.Now()
			err := c.call(&Frame{Type: TypePing})
			if err == nil && c.opts.Metrics != nil {
				c.opts.Metrics.HeartbeatRTT.Observe(time.Since(start).Seconds())
			}
			return err
		})
		err := c.readFrames(conn)
		stopHB()
		c.fail(err)
		_ = conn.Close()
		if c.isClosed() || !c.opts.AutoReconnect {
			c.setDead(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		c.opts.Logf("wire: broker client %q: connection lost (%v), reconnecting", c.name, err)
		next, rerr := reconnectLoop(c.addr, c.opts, c.closing, c.connect)
		if rerr != nil {
			c.opts.Logf("wire: broker client %q: %v", c.name, rerr)
			c.setDead(rerr)
			return
		}
		if next == nil {
			return // closed while reconnecting
		}
		if !c.reset(next) {
			_ = next.Close()
			return
		}
		c.smu.Lock()
		c.reconnects++
		c.smu.Unlock()
		if c.opts.Metrics != nil {
			c.opts.Metrics.Reconnects.Inc()
		}
		c.opts.Logf("wire: broker client %q: session resumed", c.name)
		conn = next
	}
}

func (c *BrokerClient) readFrames(conn *Conn) error {
	for {
		f, err := conn.Recv()
		if err != nil {
			return err
		}
		switch f.Type {
		case TypePush, TypePushBatch, TypePushRank:
			c.dispatchPush(f)
		case TypePing:
			_ = conn.Send(&Frame{Type: TypePong, Re: f.Seq})
		case TypeOK, TypeErr, TypePong:
			c.resolve(f)
		}
	}
}

func (c *BrokerClient) dispatchPush(f *Frame) {
	switch f.Type {
	case TypePush:
		c.cbmu.Lock()
		push := c.onPush
		c.cbmu.Unlock()
		if f.Notification == nil {
			return
		}
		if push == nil {
			// No callback registered: this client is the pooled note's
			// last owner.
			burst.Notes.Put(f.Notification)
			f.Notification = nil
			return
		}
		f.Notification.Trace = f.Trace
		push(f.Notification)
	case TypePushBatch:
		c.cbmu.Lock()
		push := c.onPush
		c.cbmu.Unlock()
		if push == nil {
			for _, n := range f.Batch {
				burst.Notes.Put(n)
			}
			f.Batch = f.Batch[:0]
			return
		}
		adoptBatchTraces(f)
		for _, n := range f.Batch {
			if n != nil {
				push(n)
			}
		}
	case TypePushRank:
		c.cbmu.Lock()
		rank := c.onRank
		c.cbmu.Unlock()
		if rank != nil && f.RankUpdate != nil {
			rank(*f.RankUpdate)
		}
	}
}

// OnPush registers the delivery callbacks. Register before subscribing.
func (c *BrokerClient) OnPush(push func(*msg.Notification), rank func(msg.RankUpdate)) {
	c.cbmu.Lock()
	defer c.cbmu.Unlock()
	c.onPush = push
	c.onRank = rank
}

// Close tears the connection down. It is idempotent.
func (c *BrokerClient) Close() error {
	if c.markClosed() {
		return nil
	}
	close(c.closing)
	if conn := c.currentConn(); conn != nil {
		_ = conn.Close()
	}
	<-c.exited
	return nil
}

// Reconnects reports how many times the session was automatically resumed.
func (c *BrokerClient) Reconnects() int {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.reconnects
}

// callRetry issues a request, parking and retrying across reconnects when
// the transport (not the remote application) failed.
func (c *BrokerClient) callRetry(mk func() *Frame) error {
	for {
		err := c.call(mk())
		if err == nil || !isConnLost(err) || !c.opts.AutoReconnect {
			return err
		}
		if werr := c.awaitOnline(); werr != nil {
			return werr
		}
	}
}

// Advertise claims a topic for this client (or the named publisher).
func (c *BrokerClient) Advertise(topic, publisher string) error {
	err := c.callRetry(func() *Frame {
		return &Frame{Type: TypeAdvertise, Topic: topic, Publisher: publisher}
	})
	if err != nil {
		return err
	}
	c.smu.Lock()
	c.advertised[topic] = publisher
	c.smu.Unlock()
	return nil
}

// Withdraw releases a topic claim.
func (c *BrokerClient) Withdraw(topic, publisher string) error {
	err := c.callRetry(func() *Frame {
		return &Frame{Type: TypeWithdraw, Topic: topic, Publisher: publisher}
	})
	if err != nil {
		return err
	}
	c.smu.Lock()
	delete(c.advertised, topic)
	c.smu.Unlock()
	return nil
}

// Publish routes a notification through the broker. With AutoReconnect it
// retries across connection loss; a duplicate-ID rejection on a retry
// means the pre-disconnect attempt landed and is treated as success, so
// publishes are exactly-once from the broker's point of view.
func (c *BrokerClient) Publish(n *msg.Notification) error {
	attempt := 0
	for {
		err := c.call(&Frame{Type: TypePublish, Notification: n})
		if err == nil || attempt > 0 && isDuplicate(err) {
			return nil
		}
		if !isConnLost(err) || !c.opts.AutoReconnect {
			return err
		}
		if werr := c.awaitOnline(); werr != nil {
			return werr
		}
		attempt++
	}
}

// PublishBatch publishes a batch of notifications as one pipelined burst:
// every publish frame is buffered before any response is awaited, so the
// batch leaves in a single vectored flush and the broker's responses
// coalesce the same way on the return path. Results are positional. With
// AutoReconnect, frames lost to the transport are retried on the next
// connection; as with Publish, a duplicate-ID rejection on a retry means
// the earlier attempt landed and counts as success.
func (c *BrokerClient) PublishBatch(ns []*msg.Notification) []error {
	errs := make([]error, len(ns))
	w := waiters.Get().(*waiter)
	defer putWaiter(w)
	for i, n := range ns {
		f := getPushFrame()
		f.Type = TypePublish
		f.Notification = n
		w.frames = append(w.frames, f)
		w.idx = append(w.idx, i)
	}
	// The frames outlive retries (a retry round resends the failed ones,
	// compacted to the front) but not this call: callBatch encodes
	// synchronously, so each goes back to the pool once its outcome is final.
	frames, idx := w.frames, w.idx
	for attempt := 0; ; attempt++ {
		retry := 0
		for k, err := range c.callBatch(w, frames) {
			switch {
			case err == nil || attempt > 0 && isDuplicate(err):
			case isConnLost(err) && c.opts.AutoReconnect:
				frames[k].Seq = 0
				frames[retry], idx[retry] = frames[k], idx[k]
				retry++
				continue
			default:
				errs[idx[k]] = err
			}
			putPushFrame(frames[k])
		}
		frames, idx = frames[:retry], idx[:retry]
		if retry == 0 {
			return errs
		}
		if werr := c.awaitOnline(); werr != nil {
			for k, i := range idx {
				errs[i] = werr
				putPushFrame(frames[k])
			}
			return errs
		}
	}
}

// isDuplicate reports a publish the broker refused because it already
// holds the ID: on a retry, proof that the earlier attempt landed.
func isDuplicate(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == CodeDuplicateID
}

// PublishRankUpdate routes a rank revision through the broker. Rank
// updates are idempotent, so retrying across reconnects is safe.
func (c *BrokerClient) PublishRankUpdate(u msg.RankUpdate) error {
	return c.callRetry(func() *Frame {
		v := u
		return &Frame{Type: TypeRankUpdate, RankUpdate: &v}
	})
}

// Subscribe registers this client for a topic; deliveries arrive through
// the OnPush callbacks.
func (c *BrokerClient) Subscribe(s msg.Subscription) error {
	if s.Subscriber == "" {
		s.Subscriber = c.name
	}
	err := c.callRetry(func() *Frame {
		v := s
		return &Frame{Type: TypeSubscribe, Subscription: &v}
	})
	if err != nil {
		return err
	}
	c.smu.Lock()
	c.subs[s.Topic] = s
	c.smu.Unlock()
	return nil
}

// Unsubscribe deregisters this client from a topic.
func (c *BrokerClient) Unsubscribe(topic string) error {
	if err := c.callRetry(func() *Frame { return &Frame{Type: TypeUnsubscribe, Topic: topic} }); err != nil {
		return err
	}
	c.smu.Lock()
	delete(c.subs, topic)
	c.smu.Unlock()
	return nil
}
