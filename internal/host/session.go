package host

import (
	"errors"
	"sync"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// Session is one device's last-hop state inside a host: an unmodified
// core.Proxy scheduled on its worker's timing wheel, plus the currently
// attached connection (nil while the device is away — the proxy then
// spools, exactly as during a simulated outage).
//
// All proxy calls are serialized by the worker wheel's callback mutex
// (wheel.Run), so a session's core state is single-threaded even though
// device frames, upstream pushes, and wheel timers arrive on different
// goroutines.
type Session struct {
	host *Host
	name string
	w    *worker

	// proxy is nil while the session is hibernated (its state then lives
	// in the spool chain below). Written only from wheel callbacks.
	proxy *core.Proxy

	mu     sync.Mutex
	conn   *wire.Conn
	topics map[string]struct{}

	// Lifecycle (guarded by mu; transitions run on the wheel). snap and
	// deltas are the session's spool chain: the latest snapshot plus every
	// record appended since. A resident session keeps its last chain as
	// the crash fallback until the next hibernation supersedes it.
	state  sessionState
	snap   spool.Loc
	deltas []spool.Loc

	// Hibernation countdown; touched only from wheel callbacks.
	hibTimer simtime.Timer
	hibArmed bool

	connects int
	resumes  int
}

// newSession builds a session around an empty proxy. It stays off the
// wheel — Host.attach calls it under h.mu, and the commit tick takes h.mu
// inside a wheel callback — which is safe because nothing can reach the
// session before attach publishes it in h.sessions, and an empty proxy arms
// no timer.
func newSession(h *Host, name string, w *worker) *Session {
	s := &Session{host: h, name: name, w: w, topics: make(map[string]struct{})}
	s.proxy = s.newProxy()
	return s
}

// newProxy returns an empty proxy for the session, network down (no device
// yet).
func (s *Session) newProxy() *core.Proxy {
	p := core.New(s.w.wheel, s)
	if s.host.opts.Trace != nil {
		p.SetTracer(sessionTracer{node: s.name, t: s.host.opts.Trace})
	}
	// Upstream arrivals are pooled; the proxy recycles every reference it
	// drops (forwarding serializes onto the wire first).
	p.SetReleaser(burst.Notes.Put)
	p.SetNetwork(false)
	return p
}

// sessionTracer fills the session's name into core events that do not name
// a node, so one shared collector attributes queue decisions per device.
type sessionTracer struct {
	node string
	t    trace.Tracer
}

func (st sessionTracer) Record(e trace.Event) {
	if e.Node == "" {
		e.Node = st.node
	}
	st.t.Record(e)
}

// attach binds a (re)connecting device connection to the session,
// superseding a stale one, and answers its hello. The answer is queued
// before s.mu is released: a racing hello for the same name can find — and
// close — this connection only afterwards, and Close flushes what is queued,
// so every hello is answered.
func (s *Session) attach(conn *wire.Conn, hello *wire.Frame) {
	ok := wire.OK(hello)
	s.mu.Lock()
	old := s.conn
	s.conn = conn
	s.connects++
	s.host.respond(conn, ok)
	s.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
	s.w.wheel.Run(func() {
		s.cancelHibernate()
		s.ensureResident()
		s.proxy.SetNetwork(true)
	})
}

// detach marks the device gone if conn is still the session's connection;
// a connection superseded by a reconnect detaches as a no-op.
func (s *Session) detach(conn *wire.Conn) {
	s.mu.Lock()
	if s.conn != conn {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	s.mu.Unlock()
	s.w.wheel.Run(func() {
		if s.proxy != nil {
			s.proxy.SetNetwork(false)
		}
		s.armHibernate()
	})
}

// closeConn drops the session's connection (host shutdown).
func (s *Session) closeConn() {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// ForwardBatch implements core.BatchForwarder with chunked batch frames.
func (s *Session) ForwardBatch(batch []*msg.Notification) error {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return errors.New("no device connected")
	}
	return wire.PushBatch(conn, batch, true, true)
}

// errNotResident rejects proxy-driving frames from a connection whose
// session hibernated under it. Only a connection superseded by a reconnect
// can observe this: the live connection's hello made the session resident
// and keeps it so. The superseded device must hello again.
var errNotResident = errors.New("session not resident")

// read serves one §3.5 READ against the session's proxy.
func (s *Session) read(req msg.ReadRequest) error {
	var rerr error
	s.w.wheel.Run(func() {
		if s.proxy == nil {
			rerr = errNotResident
			return
		}
		rerr = s.proxy.Read(req)
	})
	return rerr
}

// resume reconciles a reconnecting device's per-topic read/queue ID sets.
func (s *Session) resume(f *wire.Frame) error {
	if f.Topic == "" {
		return errors.New("resume frame without topic")
	}
	have := msg.NewIDSet(f.HaveIDs...)
	read := msg.NewIDSet(f.ReadIDs...)
	var rerr error
	s.w.wheel.Run(func() {
		if s.proxy == nil {
			rerr = errNotResident
			return
		}
		rerr = s.proxy.Resume(f.Topic, have, read)
	})
	if rerr != nil {
		return rerr
	}
	s.mu.Lock()
	s.resumes++
	s.mu.Unlock()
	if s.host.opts.Metrics != nil {
		s.host.opts.Metrics.ResumeReconciliations.Inc()
	}
	return nil
}

func (s *Session) hasTopic(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.topics[topic]
	return ok
}

func (s *Session) addTopic(topic string) {
	s.mu.Lock()
	s.topics[topic] = struct{}{}
	s.mu.Unlock()
}

func (s *Session) removeTopic(topic string) {
	s.mu.Lock()
	delete(s.topics, topic)
	s.mu.Unlock()
}

func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		Name:      s.name,
		Worker:    s.w.id,
		Connected: s.conn != nil,
		State:     s.state.String(),
		Connects:  s.connects,
		Resumes:   s.resumes,
		Topics:    len(s.topics),
	}
}
