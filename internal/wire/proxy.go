package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/journal"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
	"lasthop/internal/trace"
)

// ingressItem is one upstream arrival awaiting the proxy scheduler: a
// notification or (isRank) a rank revision. A single ordered slice keeps a
// revision from overtaking the notification it revises.
type ingressItem struct {
	n      *msg.Notification
	u      msg.RankUpdate
	isRank bool
}

// ingressQueue batches upstream arrivals into scheduler wakeups: the push
// callback appends under a short lock and schedules the preallocated drain
// closure only when the queue was empty, so a burst of N pushes costs one
// scheduler round trip and zero per-item closures instead of N of each.
type ingressQueue struct {
	mu        sync.Mutex
	items     []ingressItem
	free      []ingressItem // processed buffer awaiting reuse
	scheduled bool
	drain     func() // preallocated; must call take/recycle on the scheduler
}

// push enqueues one item, scheduling the drain if nobody has yet.
func (q *ingressQueue) push(run func(func()), it ingressItem) {
	q.mu.Lock()
	if q.items == nil {
		q.items = q.free[:0]
		q.free = nil
	}
	q.items = append(q.items, it)
	sched := !q.scheduled
	q.scheduled = true
	q.mu.Unlock()
	if sched {
		run(q.drain)
	}
}

// take hands the accumulated burst to the drain. Items pushed after take
// schedule a fresh drain.
func (q *ingressQueue) take() []ingressItem {
	q.mu.Lock()
	items := q.items
	q.items = nil
	q.scheduled = false
	q.mu.Unlock()
	return items
}

// recycle returns a processed buffer for the next burst, clearing it so
// the queue does not pin notifications that went back to the pool.
func (q *ingressQueue) recycle(items []ingressItem) {
	if items == nil {
		return
	}
	clear(items)
	q.mu.Lock()
	if q.items == nil && q.free == nil {
		q.free = items[:0]
	}
	q.mu.Unlock()
}

// proxyAPI is the input surface ProxyServer drives: either a bare
// core.Proxy or a journaled recorder.
type proxyAPI interface {
	AddTopic(cfg core.TopicConfig) error
	RemoveTopic(name string) error
	Notify(n *msg.Notification) error
	ApplyRankUpdate(u msg.RankUpdate) error
	Read(req msg.ReadRequest) error
	Resume(topic string, have, read msg.IDSet) error
	SetNetwork(up bool) error
	// Close releases what the proxy holds beyond the scheduler: a
	// journal is synced and closed.
	Close() error
}

// plainProxy adapts core.Proxy to proxyAPI.
type plainProxy struct {
	p *core.Proxy
}

var _ proxyAPI = plainProxy{}

func (pp plainProxy) AddTopic(cfg core.TopicConfig) error { return pp.p.AddTopic(cfg) }
func (pp plainProxy) RemoveTopic(name string) error       { return pp.p.RemoveTopic(name) }
func (pp plainProxy) Notify(n *msg.Notification) error {
	pp.p.Notify(n)
	return nil
}
func (pp plainProxy) ApplyRankUpdate(u msg.RankUpdate) error {
	pp.p.ApplyRankUpdate(u)
	return nil
}
func (pp plainProxy) Read(req msg.ReadRequest) error { return pp.p.Read(req) }
func (pp plainProxy) Close() error                   { return nil }
func (pp plainProxy) Resume(topic string, have, read msg.IDSet) error {
	return pp.p.Resume(topic, have, read)
}
func (pp plainProxy) SetNetwork(up bool) error {
	pp.p.SetNetwork(up)
	return nil
}

// ProxyOptions configures a proxy server.
type ProxyOptions struct {
	// BrokerAddr is the upstream broker's address.
	BrokerAddr string
	// Name is the proxy's subscriber name at the broker.
	Name string
	// JournalPath, when set, makes the proxy durable: inputs are
	// journaled and previous state is recovered before serving.
	JournalPath string
	// Upstream tunes the broker-facing client: enable AutoReconnect and
	// heartbeats there to survive broker restarts and dead links.
	Upstream ClientOptions
	// DeviceReadTimeout bounds the silence tolerated on the device
	// connection; devices must send (heartbeats count) within this bound
	// or be considered gone. Zero disables it.
	DeviceReadTimeout time.Duration
	// DeviceWriteTimeout bounds each push or response write to the
	// device. Zero disables it.
	DeviceWriteTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(string, ...any)
	// Metrics aggregates wire-level instrumentation for device
	// connections; it also propagates to the upstream client unless
	// Upstream.Metrics is set explicitly. Nil disables it.
	Metrics *Metrics
	// Trace collects per-notification traces: arriving contexts are
	// stamped with this proxy's hop, and the core queue decisions are
	// recorded against them. Nil disables tracing entirely.
	Trace *trace.Collector
}

// DeviceSession is the per-device state a proxy retains across
// disconnects, for tooling and tests.
type DeviceSession struct {
	// Name is the device's hello name.
	Name string
	// Connected reports whether the device is currently attached.
	Connected bool
	// Connects counts connection establishments (1 on first attach).
	Connects int
	// Resumes counts per-topic session resumptions processed.
	Resumes int
}

// ProxyServer runs the core last-hop proxy as a network service: upstream
// it subscribes to a broker on behalf of its device; downstream it accepts
// one device connection at a time. While no device is connected, the proxy
// considers the network down and spools notifications, exactly as during a
// simulated outage. With a journal configured it is durable: a restarted
// proxy recovers its queues, subscriptions, and tuning state.
//
// The proxy keeps session state across device disconnects: a device that
// reconnects and identifies with the same name resumes where it left off,
// and its resume frames (§3.5 read-ID sets) let the proxy re-queue
// notifications that were in flight when the previous connection died.
type ProxyServer struct {
	name     string
	opts     ProxyOptions
	sched    *simtime.Wheel
	proxy    *core.Proxy
	api      proxyAPI
	upstream *BrokerClient
	logf     func(string, ...any)

	mu         sync.Mutex
	device     *Conn
	deviceName string
	sessions   map[string]*DeviceSession
	lis        net.Listener
	closed     bool
	wg         sync.WaitGroup

	// ingress batches upstream pushes into scheduler wakeups.
	ingress ingressQueue
}

// NewProxyServer dials the upstream broker and assembles a non-durable
// proxy. Close releases both sides.
func NewProxyServer(brokerAddr, name string, logf func(string, ...any)) (*ProxyServer, error) {
	return NewProxyServerOpts(ProxyOptions{BrokerAddr: brokerAddr, Name: name, Logf: logf})
}

// NewProxyServerOpts dials the upstream broker and assembles the proxy,
// recovering journaled state first when a journal path is configured.
func NewProxyServerOpts(opts ProxyOptions) (*ProxyServer, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Upstream.Logf == nil {
		opts.Upstream.Logf = logf
	}
	if opts.Upstream.Metrics == nil {
		opts.Upstream.Metrics = opts.Metrics
	}
	ps := &ProxyServer{
		name:     opts.Name,
		opts:     opts,
		logf:     logf,
		sessions: make(map[string]*DeviceSession),
		sched:    simtime.NewWallWheel(0),
	}

	// Every touch of the proxy goes through sched.Run from here on: a
	// recovered proxy's timers can fire on the wheel as soon as Recover
	// returns.
	if opts.JournalPath == "" {
		ps.proxy = core.New(ps.sched, ps)
		ps.api = plainProxy{p: ps.proxy}
	} else {
		rec, err := journal.Recover(ps.sched, ps, opts.JournalPath, logf)
		if err != nil {
			ps.sched.Close()
			return nil, fmt.Errorf("proxy: %w", err)
		}
		ps.proxy = rec.Proxy()
		ps.api = rec
	}
	var topics []string
	ps.sched.Run(func() {
		// Upstream pushes arrive as pooled notifications and their
		// ownership ends inside the core (forwarding serializes onto the
		// wire), so the proxy recycles every reference it drops.
		ps.proxy.SetReleaser(burst.Notes.Put)
		if err := ps.api.SetNetwork(false); err != nil { // no device yet
			logf("proxy: initial network state: %v", err)
		}
		if opts.Trace != nil {
			// Stamp this proxy's name onto core events so shared
			// collectors (the load generator uses one for the whole
			// topology) attribute queue decisions to the right node.
			ps.proxy.SetTracer(nodeTracer{node: ps.name, t: opts.Trace})
		}
		topics = ps.proxy.Topics()
	})
	if opts.JournalPath != "" {
		logf("proxy: recovered journal %s (%d topics)", opts.JournalPath, len(topics))
	}
	ps.ingress.drain = func() { ps.drainIngress() }

	upstream, err := DialBrokerOpts(opts.BrokerAddr, opts.Name, opts.Upstream)
	if err != nil {
		ps.stop()
		return nil, fmt.Errorf("proxy: %w", err)
	}
	upstream.OnPush(
		func(n *msg.Notification) {
			// Hop ignores untraced notifications, but its time.Now argument
			// is not free on the hot path: read the clock only for a traced one.
			if n.Trace != nil {
				ps.opts.Trace.Hop(trace.KindProxyRecv, ps.name, n, time.Now())
			}
			ps.ingress.push(ps.sched.Run, ingressItem{n: n})
		},
		func(u msg.RankUpdate) {
			ps.ingress.push(ps.sched.Run, ingressItem{u: u, isRank: true})
		},
	)
	ps.upstream = upstream

	// A recovered proxy re-subscribes its topics upstream.
	for _, topic := range topics {
		sub := msg.Subscription{Topic: topic, Subscriber: opts.Name}
		if err := upstream.Subscribe(sub); err != nil {
			logf("proxy: resubscribe %q: %v", topic, err)
		}
	}
	return ps, nil
}

// drainIngress applies the accumulated upstream burst on the scheduler.
func (ps *ProxyServer) drainIngress() {
	items := ps.ingress.take()
	if len(items) == 0 {
		return
	}
	if m := ps.opts.Metrics; m != nil {
		m.IngressBurst.Observe(float64(len(items)))
	}
	for i := range items {
		it := &items[i]
		if it.isRank {
			if err := ps.api.ApplyRankUpdate(it.u); err != nil {
				ps.logf("proxy: journal rank update: %v", err)
			}
		} else if err := ps.api.Notify(it.n); err != nil {
			ps.logf("proxy: journal notify: %v", err)
		}
	}
	ps.ingress.recycle(items)
}

// nodeTracer fills the recording node's name into events that do not name
// one before handing them to the underlying tracer.
type nodeTracer struct {
	node string
	t    trace.Tracer
}

func (nt nodeTracer) Record(e trace.Event) {
	if e.Node == "" {
		e.Node = nt.node
	}
	nt.t.Record(e)
}

// ForwardBatch implements core.BatchForwarder: a burst of forwards — a
// drained outgoing queue, a prefetch refill, a read response — leaves in
// as few push-batch frames as the 1 MiB frame bound allows, each sampled
// notification with its trace context.
func (ps *ProxyServer) ForwardBatch(batch []*msg.Notification) error {
	ps.mu.Lock()
	dev := ps.device
	ps.mu.Unlock()
	if dev == nil {
		return errors.New("no device connected")
	}
	return PushBatch(dev, batch, true, true)
}

// PushBatch sends a burst of notifications, chunked so every frame stays
// safely below the 1 MiB frame bound. With batching false every
// notification gets its own push frame; withTrace lifts trace contexts
// into the frames. Both proxy servers pass true for both.
func PushBatch(conn *Conn, batch []*msg.Notification, batching, withTrace bool) error {
	if !batching {
		for _, n := range batch {
			if err := sendPush(conn, n, withTrace); err != nil {
				return err
			}
		}
		return nil
	}
	const budget = maxFrameBytes - 8*1024
	start, size := 0, 0
	for i, n := range batch {
		est := encodedSizeHint(n)
		if i > start && size+est > budget {
			if err := sendBatch(conn, batch[start:i], withTrace); err != nil {
				return err
			}
			start, size = i, 0
		}
		size += est
	}
	return sendBatch(conn, batch[start:], withTrace)
}

func sendPush(dev *Conn, n *msg.Notification, withTrace bool) error {
	f := getPushFrame()
	f.Type = TypePush
	f.Notification = n
	if withTrace {
		f.Trace = n.Trace
	}
	err := dev.Send(f)
	putPushFrame(f)
	return err
}

func sendBatch(dev *Conn, batch []*msg.Notification, withTrace bool) error {
	if len(batch) == 0 {
		return nil
	}
	if dev.m != nil {
		dev.m.BatchSize.Observe(float64(len(batch)))
	}
	if len(batch) == 1 {
		return sendPush(dev, batch[0], withTrace)
	}
	f := getPushFrame()
	f.Type = TypePushBatch
	f.Batch = batch
	if withTrace {
		var traces []*msg.TraceContext
		for i, n := range batch {
			if n.Trace == nil {
				continue
			}
			if traces == nil {
				traces = make([]*msg.TraceContext, len(batch))
			}
			traces[i] = n.Trace
		}
		f.Traces = traces
	}
	err := dev.Send(f)
	putPushFrame(f)
	return err
}

// Serve accepts device connections until the listener closes. After an
// explicit Close it returns nil; otherwise it returns the accept error.
func (ps *ProxyServer) Serve(lis net.Listener) error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return errors.New("proxy server closed")
	}
	ps.lis = lis
	ps.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			if ps.isClosed() {
				return nil
			}
			return err
		}
		conn := NewConn(c)
		conn.SetTimeouts(ps.opts.DeviceReadTimeout, ps.opts.DeviceWriteTimeout)
		conn.SetMetrics(ps.opts.Metrics)
		// handleDevice consumes every frame before the next Recv, so the
		// Frame can be reused. Devices send no notifications, so pooled
		// decode stays off.
		conn.SetRecvReuse(true)
		ps.mu.Lock()
		if ps.closed {
			ps.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		if old := ps.device; old != nil {
			// A reconnecting device replaces the stale connection.
			_ = old.Close()
		}
		ps.device = conn
		ps.deviceName = ""
		ps.wg.Add(1)
		ps.mu.Unlock()
		ps.sched.Run(func() {
			if err := ps.api.SetNetwork(true); err != nil {
				ps.logf("proxy: network up: %v", err)
			}
		})
		go func() {
			defer ps.wg.Done()
			ps.handleDevice(conn)
		}()
	}
}

func (ps *ProxyServer) isClosed() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.closed
}

// Close stops the server and the upstream client. It is idempotent.
func (ps *ProxyServer) Close() {
	ps.mu.Lock()
	already := ps.closed
	ps.closed = true
	lis := ps.lis
	dev := ps.device
	ps.mu.Unlock()
	if already {
		return
	}
	if lis != nil {
		_ = lis.Close()
	}
	if dev != nil {
		_ = dev.Close()
	}
	ps.wg.Wait()
	if ps.upstream != nil {
		_ = ps.upstream.Close()
	}
	// The upstream client is closed, so no new pushes can arrive.
	ps.stop()
}

// stop drops the core's remembered notifications back into the pool,
// stops the scheduler, and then syncs and closes the journal, which no
// callback can append to any more.
func (ps *ProxyServer) stop() {
	ps.sched.Run(func() { ps.proxy.Shutdown() })
	ps.sched.Close()
	if err := ps.api.Close(); err != nil {
		ps.logf("proxy: close journal: %v", err)
	}
}

func (ps *ProxyServer) handleDevice(conn *Conn) {
	defer func() {
		ps.mu.Lock()
		if ps.device == conn {
			ps.device = nil
			if s := ps.sessions[ps.deviceName]; s != nil {
				s.Connected = false
			}
			ps.deviceName = ""
			ps.mu.Unlock()
			ps.sched.Run(func() {
				if err := ps.api.SetNetwork(false); err != nil {
					ps.logf("proxy: network down: %v", err)
				}
			})
		} else {
			ps.mu.Unlock()
		}
		_ = conn.Close()
	}()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case TypeHello:
			ps.attachSession(conn, f)
			ps.respond(conn, OK(f))
		case TypePing:
			ps.respond(conn, &Frame{Type: TypePong, Re: f.Seq})
		case TypeSubscribe:
			ps.respondErr(conn, f, ps.subscribeTopic(f))
		case TypeUnsubscribe:
			ps.respondErr(conn, f, ps.unsubscribeTopic(f.Topic))
		case TypeResume:
			ps.respondErr(conn, f, ps.resumeTopic(conn, f))
		case TypeRead:
			if f.Read == nil {
				ps.respond(conn, Err(f, errors.New("read frame without request")))
				continue
			}
			var rerr error
			ps.sched.Run(func() { rerr = ps.api.Read(*f.Read) })
			// Any pushed difference left on this connection before the
			// OK below; TCP ordering lets the device treat OK as the
			// end of the read response.
			ps.respondErr(conn, f, rerr)
		default:
			ps.respond(conn, Err(f, fmt.Errorf("unsupported frame type %q", f.Type)))
		}
	}
}

// attachSession records the device's identity for the connection and
// creates or revives its session.
func (ps *ProxyServer) attachSession(conn *Conn, hello *Frame) {
	name := hello.Name
	if name == "" {
		name = conn.RemoteAddr()
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.device != conn {
		return // superseded before the hello was processed
	}
	ps.deviceName = name
	s := ps.sessions[name]
	if s == nil {
		s = &DeviceSession{Name: name}
		ps.sessions[name] = s
	}
	s.Connected = true
	s.Connects++
}

// resumeTopic reconciles a reconnecting device's per-topic state: IDs the
// proxy believed forwarded but the device never received are re-queued,
// and IDs the device consumed are marked read.
func (ps *ProxyServer) resumeTopic(conn *Conn, f *Frame) error {
	if f.Topic == "" {
		return errors.New("resume frame without topic")
	}
	have := msg.NewIDSet(f.HaveIDs...)
	read := msg.NewIDSet(f.ReadIDs...)
	var rerr error
	ps.sched.Run(func() { rerr = ps.api.Resume(f.Topic, have, read) })
	if rerr != nil {
		return rerr
	}
	ps.mu.Lock()
	if ps.device == conn {
		if s := ps.sessions[ps.deviceName]; s != nil {
			s.Resumes++
		}
	}
	ps.mu.Unlock()
	if ps.opts.Metrics != nil {
		ps.opts.Metrics.ResumeReconciliations.Inc()
	}
	return nil
}

// Sessions returns a snapshot of the per-device session state.
func (ps *ProxyServer) Sessions() []DeviceSession {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]DeviceSession, 0, len(ps.sessions))
	for _, s := range ps.sessions {
		out = append(out, *s)
	}
	return out
}

// subscribeTopic registers the topic upstream and on the proxy.
func (ps *ProxyServer) subscribeTopic(f *Frame) error {
	if f.Topic == "" {
		return errors.New("subscribe frame without topic")
	}
	var pol TopicPolicy
	if f.TopicPolicy != nil {
		pol = *f.TopicPolicy
	}
	cfg, err := pol.ToConfig(f.Topic)
	if err != nil {
		return err
	}
	// A reconnecting device reasserting a topic it already subscribed is
	// idempotent: the proxy keeps the spooled state it collected during
	// the disconnection instead of starting over.
	if _, exists := ps.Snapshot(f.Topic); exists {
		return nil
	}
	var addErr error
	ps.sched.Run(func() { addErr = ps.api.AddTopic(cfg) })
	if addErr != nil {
		return addErr
	}
	sub := msg.Subscription{
		Topic:      f.Topic,
		Subscriber: ps.name,
		Options: msg.SubscriptionOptions{
			Max:       pol.Max,
			Threshold: pol.Threshold,
			Mode:      cfg.Mode,
		},
	}
	if err := ps.upstream.Subscribe(sub); err != nil {
		ps.sched.Run(func() {
			if rerr := ps.api.RemoveTopic(f.Topic); rerr != nil {
				ps.logf("proxy: rollback topic %q: %v", f.Topic, rerr)
			}
		})
		return err
	}
	return nil
}

func (ps *ProxyServer) unsubscribeTopic(topic string) error {
	if topic == "" {
		return errors.New("unsubscribe frame without topic")
	}
	var remErr error
	ps.sched.Run(func() { remErr = ps.api.RemoveTopic(topic) })
	if err := ps.upstream.Unsubscribe(topic); err != nil {
		return err
	}
	return remErr
}

func (ps *ProxyServer) respond(conn *Conn, f *Frame) {
	if err := conn.SendRelease(f); err != nil {
		ps.logf("proxy: send response: %v", err)
	}
}

func (ps *ProxyServer) respondErr(conn *Conn, req *Frame, err error) {
	if err != nil {
		ps.respond(conn, Err(req, err))
		return
	}
	ps.respond(conn, OK(req))
}

// Snapshot exposes the proxy's per-topic state for tooling.
func (ps *ProxyServer) Snapshot(topic string) (core.TopicSnapshot, bool) {
	var (
		snap core.TopicSnapshot
		ok   bool
	)
	ps.sched.Run(func() { snap, ok = ps.proxy.Snapshot(topic) })
	return snap, ok
}

// Stats exposes the core proxy's counters for tooling and tests.
func (ps *ProxyServer) Stats() core.Stats {
	var st core.Stats
	ps.sched.Run(func() { st = ps.proxy.Stats() })
	return st
}

// Snapshots returns every topic's snapshot plus the core counters in one
// scheduler round trip; metrics scrapes use it to avoid one round trip
// per exported family.
func (ps *ProxyServer) Snapshots() ([]core.TopicSnapshot, core.Stats) {
	var (
		snaps []core.TopicSnapshot
		st    core.Stats
	)
	ps.sched.Run(func() {
		for _, t := range ps.proxy.Topics() {
			if snap, ok := ps.proxy.Snapshot(t); ok {
				snaps = append(snaps, snap)
			}
		}
		st = ps.proxy.Stats()
	})
	return snaps, st
}

// ToConfig maps the wire policy onto a core topic configuration. An empty
// policy yields the paper's unified configuration.
func (tp TopicPolicy) ToConfig(topic string) (core.TopicConfig, error) {
	cfg := core.UnifiedConfig(topic, tp.Max)
	if tp.Mode != "" {
		mode, err := msg.ParseDeliveryMode(tp.Mode)
		if err != nil {
			return core.TopicConfig{}, err
		}
		cfg.Mode = mode
	}
	switch tp.Policy {
	case "", "unified":
		// keep the unified defaults
	case "online":
		cfg.Policy = core.Online
		cfg.AutoPrefetchLimit = false
		cfg.AutoExpirationThreshold = false
	case "on-demand", "ondemand":
		cfg.Policy = core.OnDemand
		cfg.AutoPrefetchLimit = false
		cfg.AutoExpirationThreshold = false
	case "buffer":
		cfg.Policy = core.Buffer
	case "rate":
		cfg.Policy = core.Rate
		cfg.AutoPrefetchLimit = false
	default:
		return core.TopicConfig{}, fmt.Errorf("unknown policy %q", tp.Policy)
	}
	cfg.RankThreshold = tp.Threshold
	if tp.PrefetchLimit > 0 {
		cfg.PrefetchLimit = tp.PrefetchLimit
		cfg.AutoPrefetchLimit = false
	}
	if tp.DelaySeconds > 0 {
		cfg.Delay = time.Duration(tp.DelaySeconds * float64(time.Second))
	}
	cfg.InterruptRank = tp.InterruptRank
	cfg.DailyOnlineCap = tp.DailyOnlineCap
	cfg.HistoryLimit = tp.HistoryLimit
	for _, w := range tp.QuietWindows {
		cfg.Quiet = append(cfg.Quiet, core.QuietWindow{
			Start: time.Duration(w.StartMinutes) * time.Minute,
			End:   time.Duration(w.EndMinutes) * time.Minute,
		})
	}
	return cfg, cfg.Validate()
}
