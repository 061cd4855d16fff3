// Package host runs many last-hop proxies in one process: a multi-tenant
// proxy host. Where wire.ProxyServer dedicates a process (scheduler,
// upstream broker connection, listener) to a single device, Host shards
// device sessions across a small set of event-loop workers — each worker
// owns one hierarchical timing wheel (simtime.Wheel) that serializes every
// core.Proxy call of the sessions assigned to it — and multiplexes all
// upstream traffic over one ref-counted broker connection holding exactly
// one subscription per distinct topic, however many sessions share it.
//
// The paper's deployment model (§4) puts one proxy per mobile user at the
// edge; a realistic edge node serves thousands of users. The host is that
// node: per-session state stays the unmodified core.Proxy (Figure 7), and
// the host only changes where the proxies run and how they reach the
// broker.
package host

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/flight"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/simtime"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// Options configures a Host.
type Options struct {
	// BrokerAddr is the upstream broker's address.
	BrokerAddr string
	// Name is the host's subscriber name at the broker; all multiplexed
	// subscriptions are held under it.
	Name string
	// Workers is the number of event-loop workers device sessions are
	// sharded across. Zero means GOMAXPROCS.
	Workers int
	// WheelTick is the timing-wheel resolution of each worker; proxy
	// timers (delays, expirations, quiet windows) fire at most ~two ticks
	// late. Zero means 10ms.
	WheelTick time.Duration
	// Upstream tunes the broker-facing client: enable AutoReconnect and
	// heartbeats there to survive broker restarts.
	Upstream wire.ClientOptions
	// DeviceReadTimeout bounds the silence tolerated on each device
	// connection (heartbeats count). Zero disables it.
	DeviceReadTimeout time.Duration
	// DeviceWriteTimeout bounds each push or response write to a device.
	// Zero disables it.
	DeviceWriteTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(string, ...any)
	// Metrics aggregates wire-level instrumentation for device
	// connections; it also propagates to the upstream client unless
	// Upstream.Metrics is set explicitly. Nil disables it.
	Metrics *wire.Metrics
	// Trace collects per-notification traces. On a multicast topic only
	// the first session's copy carries the context onward; the other legs
	// are untraced clones, so each sampled trace stays one linear
	// publisher → device timeline. Nil disables tracing.
	Trace *trace.Collector

	// SpoolDir enables session hibernation: each worker writes hibernated
	// session state into SpoolDir/worker-N, and New recovers every
	// session spooled by a previous run (any worker count). Empty
	// disables the lifecycle — sessions then stay fully resident forever,
	// as before.
	SpoolDir string
	// HibernateAfter is how long a session may sit disconnected before
	// its state is serialized to the spool and dropped from memory. Zero
	// means 1 minute. Ignored without SpoolDir.
	HibernateAfter time.Duration
	// SpoolSegmentBytes, SpoolMaxRecordBytes, and SpoolFsync pass through
	// to spool.Options (zero values take the spool defaults).
	SpoolSegmentBytes   int64
	SpoolMaxRecordBytes int
	SpoolFsync          spool.FsyncPolicy
	// SpoolCommitEvery is the group-commit interval: each worker's wheel
	// runs one spool Commit per interval, batching the fsync (policy
	// permitting) and the memory-drop callbacks of every hibernation in
	// that window. Zero means 100ms.
	SpoolCommitEvery time.Duration
	// SpoolCompactSegments triggers compaction when a worker's spool
	// exceeds this many segments (and has appended since the last
	// compaction). Zero means 8.
	SpoolCompactSegments int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.WheelTick <= 0 {
		o.WheelTick = 10 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Upstream.Logf == nil {
		o.Upstream.Logf = o.Logf
	}
	if o.Upstream.Metrics == nil {
		o.Upstream.Metrics = o.Metrics
	}
	if o.HibernateAfter <= 0 {
		o.HibernateAfter = time.Minute
	}
	if o.SpoolCommitEvery <= 0 {
		o.SpoolCommitEvery = 100 * time.Millisecond
	}
	if o.SpoolCompactSegments <= 0 {
		o.SpoolCompactSegments = 8
	}
	return o
}

// worker is one event loop: a live timing wheel whose callback mutex
// serializes the core.Proxy calls of every session assigned to it, plus
// (with hibernation enabled) the worker's private write-ahead spool.
type worker struct {
	id    int
	wheel *simtime.Wheel
	// spool is nil when hibernation is disabled. All appends and the
	// group-commit tick run wheel-serialized, so per-worker spool
	// mutations never interleave.
	spool *spool.Writer
	// lastCompactAppends is the spool's append count after the previous
	// compaction; compaction is skipped while it hasn't advanced.
	// Wheel-serialized.
	lastCompactAppends int64
	// heartbeat is the unix-nanosecond stamp of the wheel's last live
	// advance (set by the tick hook); the watchdog's worker probe reads
	// it. A wedged session callback stops the stamps.
	heartbeat atomic.Int64
}

// topicSub is the shared state of one multiplexed upstream subscription:
// however many sessions subscribe to the topic, the broker sees exactly one
// subscriber (the host).
type topicSub struct {
	// sessions holds one reference per subscribed session. It is
	// copy-on-write: replaced under h.mu, never changed in place, so
	// dispatch walks the list it read after releasing the lock.
	sessions []*Session
	// ready is closed once the upstream subscribe resolved; err (set
	// before the close, immutable after) tells latecomers whether it
	// failed. Sessions piggybacking on an in-flight subscribe wait on it
	// instead of racing a second upstream call.
	ready chan struct{}
	err   error
	// draining is non-nil once the last reference dropped and the upstream
	// unsubscribe is in flight; it closes after the unsubscribe resolved
	// and the entry left h.topics. New subscribers wait for it before
	// issuing their own upstream subscribe — otherwise the broker could
	// process the fresh Subscribe before the older Unsubscribe and leave
	// the host unsubscribed while sessions hold references.
	draining chan struct{}
}

// Host is the multi-tenant proxy server. It accepts any number of
// concurrent device connections; each hello routes the connection to its
// (possibly new) session, and sessions survive disconnects exactly like
// wire.ProxyServer's single session does — the proxy spools while the
// device is away and reconciles on resume.
type Host struct {
	name     string
	opts     Options
	logf     func(string, ...any)
	upstream *wire.BrokerClient
	workers  []*worker

	// mu guards the session directory and the subscription table. Lock
	// order: wheel callback mutex → h.mu → s.mu. The commit tick takes h.mu
	// (and then s.mu) inside a wheel callback, so nothing may enter a wheel
	// (Wheel.Run, Schedule) while holding either.
	mu       sync.Mutex
	sessions map[string]*Session
	topics   map[string]*topicSub
	lis      net.Listener
	closed   bool
	wg       sync.WaitGroup

	// testHookUnsubscribeGap, when non-nil, runs between the last
	// reference dropping and the upstream Unsubscribe call; tests use it
	// to widen that window and pin the subscribe/unsubscribe ordering.
	testHookUnsubscribeGap func(topic string)

	// Lifecycle totals (atomics: bumped inside wheel callbacks, read by
	// the metric samplers and tests without entering the wheels).
	hibernations      atomic.Int64
	rehydrations      atomic.Int64
	rehydrateFailures atomic.Int64
	spooledDeltas     atomic.Int64
	// rehydrateHist observes rehydration latency once RegisterMetrics
	// installed it (atomic: registration may race live traffic).
	rehydrateHist atomic.Pointer[obs.Histogram]
}

// New dials the upstream broker and assembles a host with the given
// options. With SpoolDir set it also opens each worker's spool, recovers
// every session hibernated by a previous run (re-subscribing their topics
// upstream), and starts the group-commit ticks. Close releases the
// upstream connection and the workers.
func New(opts Options) (*Host, error) {
	opts = opts.withDefaults()
	h := &Host{
		name:     opts.Name,
		opts:     opts,
		logf:     opts.Logf,
		sessions: make(map[string]*Session),
		topics:   make(map[string]*topicSub),
	}
	h.workers = make([]*worker, opts.Workers)
	for i := range h.workers {
		w := &worker{id: i, wheel: simtime.NewWallWheel(opts.WheelTick)}
		w.heartbeat.Store(time.Now().UnixNano())
		wid := int32(i)
		w.wheel.SetTickHook(func(ticks, cascaded, busyNs int64) {
			w.heartbeat.Store(time.Now().UnixNano())
			if ticks > 0 {
				flight.Record(flight.SubWorker, flight.KindLoop, wid, busyNs, ticks)
			}
			if cascaded > 0 {
				flight.Record(flight.SubWheel, flight.KindCascade, wid, cascaded, 0)
			}
		})
		h.workers[i] = w
	}
	fail := func(err error) (*Host, error) {
		for _, w := range h.workers {
			w.wheel.Close()
			if w.spool != nil {
				w.spool.Abort()
			}
		}
		if h.upstream != nil {
			_ = h.upstream.Close()
		}
		return nil, fmt.Errorf("host: %w", err)
	}
	if opts.SpoolDir != "" {
		for _, w := range h.workers {
			sw, err := spool.Open(spool.Options{
				Dir:            filepath.Join(opts.SpoolDir, fmt.Sprintf("worker-%d", w.id)),
				SegmentBytes:   opts.SpoolSegmentBytes,
				MaxRecordBytes: opts.SpoolMaxRecordBytes,
				Fsync:          opts.SpoolFsync,
				Logf:           opts.Logf,
				Tag:            int32(w.id),
			})
			if err != nil {
				return fail(err)
			}
			w.spool = sw
		}
		if err := h.recoverSpooled(); err != nil {
			return fail(err)
		}
	}
	upstream, err := wire.DialBrokerOpts(opts.BrokerAddr, opts.Name, opts.Upstream)
	if err != nil {
		return fail(err)
	}
	upstream.OnPush(h.dispatchPush, h.dispatchRank)
	h.upstream = upstream
	// Recovered sessions' topics need their multiplexed upstream
	// subscriptions back before any publisher traffic can reach them.
	for _, topic := range h.UpstreamTopics() {
		if err := upstream.Subscribe(msg.Subscription{Topic: topic, Subscriber: h.name}); err != nil {
			return fail(fmt.Errorf("recover subscription %q: %w", topic, err))
		}
	}
	if opts.SpoolDir != "" {
		for _, w := range h.workers {
			h.scheduleCommit(w)
		}
	}
	return h, nil
}

// workerFor shards a session name onto a worker.
func (h *Host) workerFor(name string) *worker {
	f := fnv.New32a()
	_, _ = f.Write([]byte(name))
	return h.workers[int(f.Sum32())%len(h.workers)]
}

// dispatchPush fans one upstream notification out to every session
// subscribed to its topic. core.Proxy takes ownership of the pointer it
// is notified with (queues it, revises its rank in place), so concurrent
// sessions must not share one Notification — but they CAN share its
// payload bytes: a multi-target fan-out hands each session a
// copy-on-write envelope member from burst.Notes.Broadcast, aliasing the
// upstream note's payload instead of deep-copying it per session. The
// proxy only ever rewrites envelope fields (Rank), never Payload, and the
// group's last release recycles the upstream note itself.
func (h *Host) dispatchPush(n *msg.Notification) {
	targets := h.topicSessions(n.Topic)
	if len(targets) == 0 {
		burst.Notes.Put(n) // nobody wants it; recycle the upstream copy
		return
	}
	if n.Trace != nil { // Hop would ignore it, but only after time.Now
		h.opts.Trace.Hop(trace.KindProxyRecv, h.name, n, time.Now())
	}
	// All members must be split off before the first delivery: Wheel.Run
	// executes the delivery inline, and a hibernated session recycles its
	// member immediately — splitting afterwards would read a reset note.
	one := [1]*msg.Notification{n}
	copies := one[:]
	if len(targets) > 1 {
		copies = burst.Notes.Broadcast(n, len(targets))
		for i := 1; i < len(copies); i++ {
			copies[i].Trace = nil // the trace timeline follows the first leg
		}
	}
	for i, s := range targets {
		m := copies[i]
		// Wheel.Run drops the callback once the wheel closed; the flag
		// lets this goroutine reclaim the note instead of leaking it at
		// shutdown.
		delivered := false
		s.w.wheel.Run(func() {
			delivered = true
			s.deliverNotify(m)
		})
		if !delivered {
			burst.Notes.Put(m)
		}
	}
}

// dispatchRank fans an upstream rank revision out to the topic's sessions.
func (h *Host) dispatchRank(u msg.RankUpdate) {
	for _, s := range h.topicSessions(u.Topic) {
		s.w.wheel.Run(func() { s.deliverRank(u) })
	}
}

// topicSessions returns the topic's current session list; the caller may
// walk it without h.mu because it is never changed in place.
func (h *Host) topicSessions(topic string) []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ts := h.topics[topic]; ts != nil {
		return ts.sessions
	}
	return nil
}

// withSession returns list with s appended, as a new slice.
func withSession(list []*Session, s *Session) []*Session {
	return append(list[:len(list):len(list)], s)
}

// Serve accepts device connections until the listener closes. After an
// explicit Close it returns nil; otherwise it returns the accept error.
func (h *Host) Serve(lis net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return errors.New("host closed")
	}
	h.lis = lis
	h.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			if h.isClosed() {
				return nil
			}
			return err
		}
		conn := wire.NewConn(c)
		conn.SetTimeouts(h.opts.DeviceReadTimeout, h.opts.DeviceWriteTimeout)
		conn.SetMetrics(h.opts.Metrics)
		// handleConn consumes every frame before the next Recv, so the
		// Frame can be reused. Devices send no notifications, so pooled
		// decode stays off.
		conn.SetRecvReuse(true)
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			h.handleConn(conn)
		}()
	}
}

func (h *Host) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Close stops the listener, every device connection, the upstream client,
// and the workers. Sessions are discarded. It is idempotent.
func (h *Host) Close() {
	h.mu.Lock()
	already := h.closed
	h.closed = true
	lis := h.lis
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	if already {
		return
	}
	if lis != nil {
		_ = lis.Close()
	}
	for _, s := range sessions {
		s.closeConn()
	}
	h.wg.Wait()
	if h.upstream != nil {
		_ = h.upstream.Close()
	}
	for _, w := range h.workers {
		w.wheel.Close()
		if w.spool != nil {
			// The wheel is closed, so no further appends are possible;
			// sync what is there and seal the segment.
			if err := w.spool.Close(); err != nil {
				h.logf("host: close spool %d: %v", w.id, err)
			}
		}
	}
	// The wheels are closed (Wheel.Close joins any running callback), so
	// the proxies are quiesced; recycle their pooled notifications.
	for _, s := range sessions {
		if p := s.proxy; p != nil {
			p.Shutdown()
		}
	}
}

// Kill simulates a process crash for the chaos tests: every file
// descriptor is dropped without syncing, pending group-commit callbacks
// are discarded, and nothing is flushed. State appended to the spool
// before Kill must survive — exactly what a SIGKILL leaves behind (the
// page cache outlives the process). Production shutdown is Close.
func (h *Host) Kill() {
	h.mu.Lock()
	already := h.closed
	h.closed = true
	lis := h.lis
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	if already {
		return
	}
	if lis != nil {
		_ = lis.Close()
	}
	for _, s := range sessions {
		s.closeConn()
	}
	// Wheels first: drops every pending commit tick and hibernation
	// callback, the way a dead process would.
	for _, w := range h.workers {
		w.wheel.Close()
		if w.spool != nil {
			w.spool.Abort()
		}
	}
	if h.upstream != nil {
		_ = h.upstream.Close()
	}
	h.wg.Wait()
	// A real crash loses the heap along with the pool, so recycling here
	// changes no durability semantics — it only keeps the process-local
	// pool accounting honest. The wheels are closed and joined, so the
	// proxies are quiesced.
	for _, s := range sessions {
		if p := s.proxy; p != nil {
			p.Shutdown()
		}
	}
}

// handleConn serves one device connection: the hello routes it to its
// session; subsequent frames drive that session's proxy.
func (h *Host) handleConn(conn *wire.Conn) {
	var sess *Session
	defer func() {
		if sess != nil {
			sess.detach(conn)
		}
		_ = conn.Close()
	}()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		if sess == nil && f.Type != wire.TypeHello && f.Type != wire.TypePing {
			h.respond(conn, wire.Err(f, errors.New("hello required before other frames")))
			continue
		}
		switch f.Type {
		case wire.TypeHello:
			name := f.Name
			if name == "" {
				name = conn.RemoteAddr()
			}
			// A repeated hello that renames the connection moves it to
			// another session. Release the old one before the new session's
			// attach answers: a client holding its OK must never find the
			// old session still owning this connection (network up, never
			// spooling), and the deferred detach on disconnect would miss it.
			if sess != nil && sess.name != name {
				sess.detach(conn)
				sess = nil
			}
			s, err := h.attach(conn, name, f)
			if err != nil {
				h.respond(conn, wire.Err(f, err))
				return
			}
			sess = s // attach answered the hello
		case wire.TypePing:
			h.respond(conn, &wire.Frame{Type: wire.TypePong, Re: f.Seq})
		case wire.TypeSubscribe:
			h.respondErr(conn, f, h.subscribe(sess, f))
		case wire.TypeUnsubscribe:
			h.respondErr(conn, f, h.unsubscribe(sess, f.Topic))
		case wire.TypeResume:
			h.respondErr(conn, f, sess.resume(f))
		case wire.TypeRead:
			if f.Read == nil {
				h.respond(conn, wire.Err(f, errors.New("read frame without request")))
				continue
			}
			h.respondErr(conn, f, sess.read(*f.Read))
		default:
			h.respond(conn, wire.Err(f, fmt.Errorf("unsupported frame type %q", f.Type)))
		}
	}
}

// attach routes a connection to its session, creating the session on first
// contact. A session that already has a live connection is superseded: the
// stale connection is closed, exactly as a reconnecting device expects.
func (h *Host) attach(conn *wire.Conn, name string, hello *wire.Frame) (*Session, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("host closed")
	}
	s := h.sessions[name]
	if s == nil {
		s = newSession(h, name, h.workerFor(name))
		h.sessions[name] = s
	}
	h.mu.Unlock()
	s.attach(conn, hello)
	return s, nil
}

// subscribe adds the topic to the session's proxy and takes one reference
// on the multiplexed upstream subscription, subscribing at the broker only
// for the first session on the topic.
func (h *Host) subscribe(sess *Session, f *wire.Frame) error {
	if f.Topic == "" {
		return errors.New("subscribe frame without topic")
	}
	var pol wire.TopicPolicy
	if f.TopicPolicy != nil {
		pol = *f.TopicPolicy
	}
	cfg, err := pol.ToConfig(f.Topic)
	if err != nil {
		return err
	}
	// Reasserting a topic on reconnect is idempotent; the session keeps
	// its spooled state and its single upstream reference. The exception
	// is a session that restarted empty after an unreadable snapshot: its
	// proxy lost the topic while the reference survived, so the reassert
	// re-adds the config without touching the subscription table.
	if sess.hasTopic(f.Topic) {
		var addErr error
		sess.w.wheel.Run(func() {
			if sess.proxy == nil {
				return
			}
			for _, t := range sess.proxy.Topics() {
				if t == f.Topic {
					return
				}
			}
			addErr = sess.proxy.AddTopic(cfg)
		})
		return addErr
	}
	var addErr error
	sess.w.wheel.Run(func() {
		if sess.proxy == nil {
			// Only a connection superseded by a reconnect can race the
			// session into hibernation; its device must hello again.
			addErr = errNotResident
			return
		}
		addErr = sess.proxy.AddTopic(cfg)
	})
	if addErr != nil {
		return addErr
	}

	h.mu.Lock()
	ts := h.topics[f.Topic]
	// A draining entry still owns the broker subscription until its
	// unsubscribe resolves; wait it out and re-check rather than racing a
	// fresh Subscribe past the in-flight Unsubscribe.
	for ts != nil && ts.draining != nil {
		drained := ts.draining
		h.mu.Unlock()
		<-drained
		h.mu.Lock()
		ts = h.topics[f.Topic]
	}
	first := ts == nil
	if first {
		ts = &topicSub{ready: make(chan struct{})}
		h.topics[f.Topic] = ts
	}
	ts.sessions = withSession(ts.sessions, sess)
	refs := len(ts.sessions)
	h.mu.Unlock()
	flight.Record(flight.SubMux, flight.KindSubscribe, -1, flight.TopicHash(f.Topic), int64(refs))

	if first {
		// The host subscribes with no volume options: every per-session
		// limit (threshold, max, quiet windows…) is enforced by that
		// session's core.Proxy, so the shared subscription must deliver
		// the superset.
		err = h.upstream.Subscribe(msg.Subscription{Topic: f.Topic, Subscriber: h.name})
		h.mu.Lock()
		ts.err = err
		close(ts.ready)
		if err != nil {
			// The entry leaves with every reference taken on it: this
			// session's and those of the sessions waiting on ready, which
			// roll back below.
			delete(h.topics, f.Topic)
		}
		h.mu.Unlock()
	} else {
		<-ts.ready
		err = ts.err
	}
	if err != nil {
		sess.w.wheel.Run(func() {
			if sess.proxy == nil {
				return
			}
			if rerr := sess.proxy.RemoveTopic(f.Topic); rerr != nil {
				h.logf("host: rollback topic %q: %v", f.Topic, rerr)
			}
		})
		return err
	}
	sess.addTopic(f.Topic)
	// A session re-subscribing over an existing spool chain must correct the
	// chain's membership, or a crash before the next snapshot would recover
	// it without this topic.
	sess.w.wheel.Run(func() { sess.spoolMembership(msg.SpoolDelta{Subscribe: f.Topic}) })
	return nil
}

// unsubscribe removes the topic from the session's proxy and releases its
// reference; the last reference drops the broker subscription. It tolerates
// a session that hibernated under it (the proxy's copy of the topic then
// lives in the spool chain, corrected by a membership delta instead), so a
// ghost connection superseded mid-churn can never crash the host or leak
// the reference.
func (h *Host) unsubscribe(sess *Session, topic string) error {
	if topic == "" {
		return errors.New("unsubscribe frame without topic")
	}
	var remErr error
	sess.w.wheel.Run(func() {
		switch {
		case sess.proxy != nil:
			remErr = sess.proxy.RemoveTopic(topic)
		case !sess.hasTopic(topic):
			remErr = fmt.Errorf("unknown topic %q", topic)
		}
		if remErr == nil {
			sess.spoolMembership(msg.SpoolDelta{Unsubscribe: topic})
		}
	})
	if remErr != nil {
		return remErr
	}
	sess.removeTopic(topic)
	h.mu.Lock()
	ts := h.topics[topic]
	var drained chan struct{}
	if ts != nil {
		if i := slices.Index(ts.sessions, sess); i >= 0 {
			ts.sessions = slices.Concat(ts.sessions[:i], ts.sessions[i+1:])
			flight.Record(flight.SubMux, flight.KindUnsubscribe, -1, flight.TopicHash(topic), int64(len(ts.sessions)))
			if len(ts.sessions) == 0 {
				// Last reference: keep the entry in h.topics, marked
				// draining, until the upstream unsubscribe resolves, so a
				// concurrent new subscriber serializes behind it instead of
				// sending a Subscribe the broker may process first.
				drained = make(chan struct{})
				ts.draining = drained
			}
		}
	}
	h.mu.Unlock()
	if drained == nil {
		return nil
	}
	if h.testHookUnsubscribeGap != nil {
		h.testHookUnsubscribeGap(topic)
	}
	err := h.upstream.Unsubscribe(topic)
	h.mu.Lock()
	if h.topics[topic] == ts {
		delete(h.topics, topic)
	}
	h.mu.Unlock()
	close(drained)
	flight.Record(flight.SubMux, flight.KindDrain, -1, flight.TopicHash(topic), 0)
	return err
}

func (h *Host) respond(conn *wire.Conn, f *wire.Frame) {
	if err := conn.SendRelease(f); err != nil {
		h.logf("host: send response: %v", err)
	}
}

func (h *Host) respondErr(conn *wire.Conn, req *wire.Frame, err error) {
	if err != nil {
		h.respond(conn, wire.Err(req, err))
		return
	}
	h.respond(conn, wire.OK(req))
}

// TopicRefs reports how many sessions hold a reference on the topic's
// multiplexed upstream subscription (0 when the host is not subscribed).
func (h *Host) TopicRefs(topic string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ts := h.topics[topic]; ts != nil {
		return len(ts.sessions)
	}
	return 0
}

// UpstreamTopics lists the topics the host currently holds one broker
// subscription each for.
func (h *Host) UpstreamTopics() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.topics))
	for t := range h.topics {
		out = append(out, t)
	}
	return out
}

// SessionInfo is a snapshot of one device session for tooling and tests.
type SessionInfo struct {
	Name      string
	Worker    int
	Connected bool
	State     string // resident | hibernating | hibernated
	Connects  int
	Resumes   int
	Topics    int
}

// Sessions returns a snapshot of every session.
func (h *Host) Sessions() []SessionInfo {
	h.mu.Lock()
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	return out
}

// SessionStats returns the core counters of one session's proxy. It
// reports false for unknown names and for hibernated sessions — stats must
// never force a rehydration.
func (h *Host) SessionStats(name string) (core.Stats, bool) {
	h.mu.Lock()
	s := h.sessions[name]
	h.mu.Unlock()
	if s == nil {
		return core.Stats{}, false
	}
	var (
		st core.Stats
		ok bool
	)
	s.w.wheel.Run(func() {
		if s.proxy != nil {
			st = s.proxy.Stats()
			ok = true
		}
	})
	return st, ok
}

// SessionSnapshot returns one topic snapshot of one session's proxy.
func (h *Host) SessionSnapshot(name, topic string) (core.TopicSnapshot, bool) {
	h.mu.Lock()
	s := h.sessions[name]
	h.mu.Unlock()
	if s == nil {
		return core.TopicSnapshot{}, false
	}
	var (
		snap core.TopicSnapshot
		ok   bool
	)
	s.w.wheel.Run(func() {
		if s.proxy != nil {
			snap, ok = s.proxy.Snapshot(topic)
		}
	})
	return snap, ok
}

// LifecycleStats reports the host's hibernation totals since start.
type LifecycleStats struct {
	Hibernations      int64
	Rehydrations      int64
	RehydrateFailures int64
	// SpooledDeltas counts delta records appended for non-resident
	// sessions since start; phased drills use it to know when a publish
	// wave is fully on disk.
	SpooledDeltas int64
	Resident      int
	Hibernated    int
	SpoolSegments int64
	SpoolBytes    int64
}

// Lifecycle snapshots the hibernation counters, the resident/hibernated
// split, and the spool footprint across workers.
func (h *Host) Lifecycle() LifecycleStats {
	st := LifecycleStats{
		Hibernations:      h.hibernations.Load(),
		Rehydrations:      h.rehydrations.Load(),
		RehydrateFailures: h.rehydrateFailures.Load(),
		SpooledDeltas:     h.spooledDeltas.Load(),
	}
	h.mu.Lock()
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.state == stateHibernated {
			st.Hibernated++
		} else {
			st.Resident++
		}
		s.mu.Unlock()
	}
	for _, w := range h.workers {
		if w.spool != nil {
			ws := w.spool.Stats()
			st.SpoolSegments += int64(ws.Segments)
			st.SpoolBytes += ws.Bytes
		}
	}
	return st
}

// Workers reports the worker count (for tooling and the load generator's
// run metadata).
func (h *Host) Workers() int { return len(h.workers) }

// Probes returns the host's stall-watchdog probes: one heartbeat probe
// per worker wheel (stale stamp = a wedged session callback or a dead
// tick loop) and, when hibernation is on, one group-commit stall probe
// per worker spool. heartbeatMax bounds heartbeat age — keep it well
// above the wheel tick (the hook only stamps on live advances);
// spoolPendingMax bounds how long a hibernate/delta append may wait for
// its group commit. Register alongside wire.FlusherStallProbe and
// burst.DriftProbes for full coverage.
func (h *Host) Probes(heartbeatMax, spoolPendingMax time.Duration) []flight.Probe {
	var probes []flight.Probe
	for _, w := range h.workers {
		probes = append(probes, flight.HeartbeatProbe(
			fmt.Sprintf("worker-%d-heartbeat", w.id), flight.SubWorker.String(), &w.heartbeat, heartbeatMax))
		if w.spool != nil {
			probes = append(probes, w.spool.StallProbe(
				fmt.Sprintf("worker-%d-spool", w.id), spoolPendingMax, 0))
		}
	}
	return probes
}
