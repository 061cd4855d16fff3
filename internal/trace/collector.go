package trace

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/obs"
)

// Context is the compact per-notification trace context propagated across
// the wire. It is defined in msg (so notifications can carry it without an
// import cycle) and aliased here as the tracing-facing name.
type Context = msg.TraceContext

// Hop is one node traversal within a Context.
type Hop = msg.TraceHop

// Outcome is the terminal classification of a traced notification. Every
// completed trace lands in exactly one.
type Outcome string

const (
	// OutcomeRead: delivered to the device and consumed by a user read.
	OutcomeRead Outcome = "read"
	// OutcomeWasted: forwarded over the last hop but never read (§3.1
	// waste) — the transfer cost was paid for nothing.
	OutcomeWasted Outcome = "wasted"
	// OutcomeLost: the user would plausibly have seen it, but delivery
	// failed — it expired in the outgoing queue while the last hop was
	// down, or died in flight across a reconnect.
	OutcomeLost Outcome = "lost"
	// OutcomeExpired: retired before any last-hop transfer — expired in a
	// staging queue, retracted by a rank update, or rejected below the
	// subscription threshold. No transfer cost, no user-visible loss.
	OutcomeExpired Outcome = "expired"
	// OutcomeDuplicate: rejected at the broker as a duplicate ID
	// (publisher retry after a lost acknowledgment).
	OutcomeDuplicate Outcome = "duplicate"
)

// terminalKind reports whether an event kind completes a trace.
func terminalKind(k Kind) bool {
	switch k {
	case KindRead, KindExpire, KindDrop, KindDuplicate, KindLost:
		return true
	}
	return false
}

// anomalyKind reports whether an event kind forces trace creation even for
// unsampled notifications ("always sample on anomalies").
func anomalyKind(k Kind) bool {
	switch k {
	case KindDuplicate, KindExpire, KindDrop, KindLost, KindResume:
		return true
	}
	return false
}

// NotificationTrace is the causally ordered event timeline of one
// notification, as observed by one Collector (or, in an in-process
// deployment like the load generator, the whole stack).
type NotificationTrace struct {
	TraceID string `json:"traceId"`
	Topic   string `json:"topic,omitempty"`
	ID      msg.ID `json:"id"`
	// Origin names the node that minted the context; empty for traces
	// opened by an anomaly on an unsampled notification.
	Origin string `json:"origin,omitempty"`
	// Sampled distinguishes head-sampled traces (full timeline) from
	// anomaly-opened ones (partial timeline starting at the anomaly).
	Sampled bool `json:"sampled"`
	// Outcome and Cause are set when the trace completes. Cause names the
	// specific queue decision responsible, with the tuner values that
	// were in effect.
	Outcome Outcome `json:"outcome,omitempty"`
	Cause   string  `json:"cause,omitempty"`
	Events  []Event `json:"events"`
}

// Start returns the time of the first event (zero when empty).
func (t *NotificationTrace) Start() time.Time {
	if len(t.Events) == 0 {
		return time.Time{}
	}
	return t.Events[0].At
}

// End returns the time of the last event (zero when empty).
func (t *NotificationTrace) End() time.Time {
	if len(t.Events) == 0 {
		return time.Time{}
	}
	return t.Events[len(t.Events)-1].At
}

// first returns the first event of one of the given kinds, or nil.
func (t *NotificationTrace) first(kinds ...Kind) *Event {
	for i := range t.Events {
		for _, k := range kinds {
			if t.Events[i].Kind == k {
				return &t.Events[i]
			}
		}
	}
	return nil
}

// Breakdown is the per-hop latency decomposition of a delivered
// notification. Segments that the timeline does not cover are negative.
type Breakdown struct {
	// Broker: publish accept to hand-off toward the last-hop proxy
	// (includes shard routing).
	Broker time.Duration
	// ProxyQueue: proxy receive to the forward decision — time spent in
	// the Figure 7 queues.
	ProxyQueue time.Duration
	// LastHop: forward to device receive.
	LastHop time.Duration
}

// LatencyBreakdown decomposes the delivery path of the trace. Segments
// not observed (undelivered notifications, partial anomaly traces) are
// negative.
func (t *NotificationTrace) LatencyBreakdown() Breakdown {
	b := Breakdown{Broker: -1, ProxyQueue: -1, LastHop: -1}
	pub := t.first(KindPublish)
	recv := t.first(KindProxyRecv)
	fwd := t.first(KindForward)
	dev := t.first(KindDeviceRecv)
	if pub != nil && recv != nil {
		b.Broker = recv.At.Sub(pub.At)
	}
	if recv != nil && fwd != nil {
		b.ProxyQueue = fwd.At.Sub(recv.At)
	}
	if fwd != nil && dev != nil {
		b.LastHop = dev.At.Sub(fwd.At)
	}
	return b
}

// Sampler makes the head-sampling decision at the trace origin: a base
// rate, overridable per topic, applied deterministically by hashing the
// notification ID so retries of the same publish sample identically.
type Sampler struct {
	mu       sync.RWMutex
	base     float64
	perTopic map[string]float64
}

// NewSampler returns a sampler with the given base rate in [0, 1].
func NewSampler(base float64) *Sampler {
	return &Sampler{base: base, perTopic: make(map[string]float64)}
}

// SetTopicRate overrides the sampling rate for one topic.
func (s *Sampler) SetTopicRate(topic string, rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perTopic[topic] = rate
}

// Rate returns the sampling rate in effect for a topic.
func (s *Sampler) Rate(topic string) float64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r, ok := s.perTopic[topic]; ok {
		return r
	}
	return s.base
}

// Sample reports whether a notification should be head-sampled.
func (s *Sampler) Sample(topic string, id msg.ID) bool {
	rate := s.Rate(topic)
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return float64(h.Sum64()>>11)/float64(1<<53) < rate
}

// CollectorStats is a point-in-time snapshot of collector accounting.
type CollectorStats struct {
	// Sampled counts traces opened by a head-sampling decision at this
	// collector (trace origins only).
	Sampled uint64
	// Completed counts traces that reached a terminal outcome.
	Completed uint64
	// Evicted counts completed traces pushed out of the ring by newer
	// ones.
	Evicted uint64
	// DroppedEvents counts events discarded because their notification
	// was neither sampled nor anomalous, plus events arriving after their
	// trace left the ring.
	DroppedEvents uint64
	// ActiveOverflow counts trace creations refused because the active
	// table was full.
	ActiveOverflow uint64
	// Active and Ring are current occupancies.
	Active int
	Ring   int
	// Outcomes counts completed traces per terminal outcome.
	Outcomes map[Outcome]uint64
}

// Collector is the live-stack tracer: it follows sampled notifications
// through per-notification event timelines, attributes each terminal
// outcome to the queue decision that caused it, and retains the most
// recent completed traces in a bounded ring for /debug/traces and JSONL
// export. A nil *Collector is valid everywhere and records nothing.
type Collector struct {
	node    string
	sampler *Sampler

	mu        sync.Mutex
	active    map[msg.ID]*NotificationTrace
	done      map[msg.ID]*NotificationTrace // traces still in the ring
	ring      []*NotificationTrace          // bounded, oldest evicted first
	ringCap   int
	maxActive int

	sampled   uint64
	completed uint64
	evicted   uint64
	dropped   uint64
	overflow  uint64
	outcomes  map[Outcome]uint64
}

var _ Tracer = (*Collector)(nil)

// DefaultRingCapacity bounds the completed-trace ring when the caller
// passes no explicit capacity.
const DefaultRingCapacity = 512

// maxActiveTraces bounds the in-progress table so a stalled stage cannot
// grow collector memory without bound.
const maxActiveTraces = 1 << 16

// NewCollector returns a collector identified as node, sampling new
// traces with sampler (nil samples nothing; anomalies still open traces)
// and retaining up to ringCap completed traces (<= 0 means
// DefaultRingCapacity).
func NewCollector(node string, sampler *Sampler, ringCap int) *Collector {
	if ringCap <= 0 {
		ringCap = DefaultRingCapacity
	}
	return &Collector{
		node:      node,
		sampler:   sampler,
		active:    make(map[msg.ID]*NotificationTrace),
		done:      make(map[msg.ID]*NotificationTrace),
		ringCap:   ringCap,
		maxActive: maxActiveTraces,
		outcomes:  make(map[Outcome]uint64),
	}
}

// Node returns the collector's node identity.
func (c *Collector) Node() string {
	if c == nil {
		return ""
	}
	return c.node
}

// PublishAccepted is the trace origin: called by the broker when a
// publish is accepted. It decides sampling, mints and attaches the
// context (trace ID = notification ID), and records the publish-accept
// event. Notifications arriving with a context already attached (a
// publisher may pre-attach one) keep it.
func (c *Collector) PublishAccepted(n *msg.Notification, node string, now time.Time) {
	if c == nil {
		return
	}
	if n.Trace == nil {
		if !c.sampler.Sample(n.Topic, n.ID) {
			return
		}
		n.Trace = &Context{
			TraceID: string(n.ID),
			Origin:  node,
			Hops:    []Hop{{Node: node, At: now.UnixNano()}},
		}
	}
	c.Record(Event{
		At: now, Kind: KindPublish, Topic: n.Topic, ID: n.ID, Rank: n.Rank,
		TraceID: n.Trace.TraceID, Node: node,
	})
}

// Hop stamps the node onto a sampled notification's context (copy-on-
// append: fan-out clones share the context pointer) and records the given
// event kind. Unsampled notifications are untouched.
func (c *Collector) Hop(kind Kind, node string, n *msg.Notification, now time.Time) {
	if c == nil || n.Trace == nil {
		return
	}
	n.Trace = n.Trace.WithHop(node, now)
	c.Record(Event{
		At: now, Kind: kind, Topic: n.Topic, ID: n.ID, Rank: n.Rank,
		TraceID: n.Trace.TraceID, Node: node,
	})
}

// Record implements Tracer. Events for notifications that are neither
// sampled (no TraceID) nor anomalous are dropped cheaply; anomalies open
// a partial trace on the spot.
func (c *Collector) Record(e Event) {
	if c == nil || e.ID == msg.NoID {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Node == "" {
		e.Node = c.node
	}
	nt := c.active[e.ID]
	if nt == nil {
		if done := c.done[e.ID]; done != nil {
			// Late event for a completed trace (e.g. a device read racing
			// proxy-side expiry): keep the timeline complete but do not
			// reopen or reclassify.
			done.Events = append(done.Events, e)
			return
		}
		if e.TraceID == "" && !anomalyKind(e.Kind) {
			c.dropped++
			return
		}
		if len(c.active) >= c.maxActive {
			c.overflow++
			return
		}
		nt = &NotificationTrace{
			TraceID: e.TraceID,
			Topic:   e.Topic,
			ID:      e.ID,
			Sampled: e.TraceID != "",
		}
		if nt.TraceID == "" {
			nt.TraceID = string(e.ID)
		}
		if e.Kind == KindPublish {
			nt.Origin = e.Node
			c.sampled++
		}
		c.active[e.ID] = nt
	}
	if nt.Topic == "" {
		nt.Topic = e.Topic
	}
	nt.Events = append(nt.Events, e)
	if terminalKind(e.Kind) {
		if e.Kind == KindDuplicate && len(nt.Events) > 1 {
			// A duplicate-ID rejection terminates the retry attempt, not
			// the original notification (which shares the ID and is still
			// in flight): keep it as an annotation on the live trace.
			return
		}
		c.finalizeLocked(nt, &e)
	}
}

// finalizeLocked classifies the trace and moves it from the active table
// into the completed ring. Callers hold c.mu.
func (c *Collector) finalizeLocked(nt *NotificationTrace, last *Event) {
	nt.Outcome, nt.Cause = attribute(nt, last)
	delete(c.active, nt.ID)
	c.completed++
	c.outcomes[nt.Outcome]++
	c.pushLocked(nt)
}

func (c *Collector) pushLocked(nt *NotificationTrace) {
	if len(c.ring) >= c.ringCap {
		old := c.ring[0]
		c.ring = append(c.ring[:0], c.ring[1:]...)
		delete(c.done, old.ID)
		c.evicted++
		c.ring = append(c.ring, nt)
	} else {
		c.ring = append(c.ring, nt)
	}
	c.done[nt.ID] = nt
}

// attribute maps a completed timeline to its terminal outcome and the
// queue decision responsible. The five outcomes partition every
// possibility: read, wasted, lost, expired, duplicate.
func attribute(nt *NotificationTrace, last *Event) (Outcome, string) {
	var forwarded, deviceHeld *Event
	var lastEnqueue *Event
	for i := range nt.Events {
		switch nt.Events[i].Kind {
		case KindForward:
			forwarded = &nt.Events[i]
		case KindDeviceRecv:
			deviceHeld = &nt.Events[i]
		case KindEnqueue:
			lastEnqueue = &nt.Events[i]
		}
	}
	decision := lastEnqueue
	if forwarded != nil {
		decision = forwarded
	}
	switch last.Kind {
	case KindRead:
		return OutcomeRead, ""
	case KindDuplicate:
		return OutcomeDuplicate, "duplicate ID rejected at broker " + last.Node
	case KindLost:
		cause := last.Cause
		if cause == "" {
			cause = "in flight on the last hop at reconnect; content no longer recoverable"
		}
		return OutcomeLost, cause
	case KindExpire:
		if forwarded != nil || deviceHeld != nil || last.Queue == "device" {
			return OutcomeWasted, "forwarded " + decisionDetail(decision) + " but expired unread"
		}
		switch last.Queue {
		case "outgoing":
			return OutcomeLost, "expired in outgoing while the last hop was unavailable " + decisionDetail(decision)
		default:
			return OutcomeExpired, "expired in " + queueName(last.Queue) + " before any transfer " + decisionDetail(decision)
		}
	case KindDrop:
		if forwarded != nil || deviceHeld != nil {
			return OutcomeWasted, dropCause(last) + " after forward " + decisionDetail(decision)
		}
		return OutcomeExpired, dropCause(last) + " before any transfer " + decisionDetail(decision)
	default:
		// Unreachable while terminalKind and this switch agree.
		return OutcomeExpired, "unclassified terminal event " + string(last.Kind)
	}
}

func queueName(q string) string {
	if q == "" {
		return "a staging queue"
	}
	return q
}

func dropCause(e *Event) string {
	if e.Cause != "" {
		return e.Cause
	}
	return "dropped"
}

// decisionDetail renders the queue decision and tuner values in effect at
// the attributed event.
func decisionDetail(e *Event) string {
	if e == nil {
		return "(no queue decision observed)"
	}
	s := "(queue=" + queueName(e.Queue)
	if e.Limit != 0 {
		s += " prefetch_limit=" + strconv.Itoa(e.Limit)
	}
	if e.ThresholdS != 0 {
		s += fmt.Sprintf(" exp_threshold=%.3gs", e.ThresholdS)
	}
	if e.DelayS != 0 {
		s += fmt.Sprintf(" delay=%.3gs", e.DelayS)
	}
	if e.Cause != "" {
		s += " cause=" + e.Cause
	}
	return s + ")"
}

// FinishActive force-completes every still-active trace, classifying by
// how far delivery got: forwarded-but-unread traces become wasted,
// anything still queued becomes lost. Load generators call this at the
// end of a run so every sampled notification lands in exactly one
// outcome; long-running daemons normally never call it.
func (c *Collector) FinishActive(now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]msg.ID, 0, len(c.active))
	for id := range c.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nt := c.active[id]
		forwarded := nt.first(KindForward) != nil || nt.first(KindDeviceRecv) != nil
		e := Event{At: now, Kind: KindExpire, Topic: nt.Topic, ID: id, Node: c.node,
			TraceID: nt.TraceID, Cause: "end of run"}
		if forwarded {
			e.Queue = "device"
		} else {
			e.Queue = "outgoing"
		}
		nt.Events = append(nt.Events, e)
		c.finalizeLocked(nt, &e)
		if forwarded {
			nt.Cause = "forwarded but unread at end of run"
		} else {
			nt.Cause = "still queued at end of run"
		}
	}
}

// Stats returns a snapshot of the collector accounting.
func (c *Collector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CollectorStats{
		Sampled:        c.sampled,
		Completed:      c.completed,
		Evicted:        c.evicted,
		DroppedEvents:  c.dropped,
		ActiveOverflow: c.overflow,
		Active:         len(c.active),
		Ring:           len(c.ring),
		Outcomes:       make(map[Outcome]uint64, len(c.outcomes)),
	}
	for k, v := range c.outcomes {
		out.Outcomes[k] = v
	}
	return out
}

// Completed returns the retained completed traces, oldest first. The
// traces are deep-ish copies: event slices are cloned so callers may
// inspect them without racing late-event appends.
func (c *Collector) Completed() []NotificationTrace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NotificationTrace, len(c.ring))
	for i, nt := range c.ring {
		out[i] = *nt
		out[i].Events = append([]Event(nil), nt.Events...)
	}
	return out
}

// Active returns copies of the still-active traces (no terminal outcome
// yet), ordered by first event. On a long-running daemon these are the
// node's partial views of notifications whose terminal belongs to another
// node — a broker never observes the device read — so dumps include them
// and cross-node merges recover the full timeline.
func (c *Collector) Active() []NotificationTrace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NotificationTrace, 0, len(c.active))
	for _, nt := range c.active {
		cp := *nt
		cp.Events = append([]Event(nil), nt.Events...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start().Before(out[j].Start()) })
	return out
}

// WriteJSONL streams the retained completed traces followed by the
// still-active ones, one JSON object per line — the dump format
// ReadDumps reads (active traces have no outcome; a merge takes the
// outcome from whichever node's dump completed the trace).
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	dump := append(c.Completed(), c.Active()...)
	for _, nt := range dump {
		b, err := json.Marshal(&nt)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// tracesPayload is the JSON document served by /debug/traces.
type tracesPayload struct {
	Node      string              `json:"node"`
	Sampled   uint64              `json:"sampled"`
	Completed uint64              `json:"completed"`
	Evicted   uint64              `json:"evicted"`
	Active    int                 `json:"active"`
	Ring      int                 `json:"ring"`
	Outcomes  map[Outcome]uint64  `json:"outcomes"`
	Traces    []NotificationTrace `json:"traces"`
}

// Handler serves the completed-trace ring over HTTP: a JSON summary plus
// the most recent traces (?n= bounds the count, ?format=jsonl streams the
// raw dump for cmd/lasthop-doctor).
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = c.WriteJSONL(w)
			return
		}
		traces := c.Completed()
		if s := r.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(traces) {
				traces = traces[len(traces)-n:]
			}
		}
		st := c.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tracesPayload{
			Node: c.node, Sampled: st.Sampled, Completed: st.Completed,
			Evicted: st.Evicted, Active: st.Active, Ring: st.Ring,
			Outcomes: st.Outcomes, Traces: traces,
		})
	})
}

// RegisterMetrics exposes the collector accounting as scrape-time metric
// families on the registry.
func (c *Collector) RegisterMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	node := c.node
	reg.SampleCounters("lasthop_trace_sampled_total",
		"Traces opened by a head-sampling decision at this node.",
		[]string{"node"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{node}, Value: float64(c.Stats().Sampled)}}
		})
	reg.SampleCounters("lasthop_trace_completed_total",
		"Traces that reached a terminal outcome, by outcome.",
		[]string{"node", "outcome"}, func() []obs.Sample {
			st := c.Stats()
			out := make([]obs.Sample, 0, len(st.Outcomes))
			for _, o := range []Outcome{OutcomeRead, OutcomeWasted, OutcomeLost, OutcomeExpired, OutcomeDuplicate} {
				out = append(out, obs.Sample{Labels: []string{node, string(o)}, Value: float64(st.Outcomes[o])})
			}
			return out
		})
	reg.SampleCounters("lasthop_trace_dropped_events_total",
		"Events dropped because the notification was unsampled, the trace had left the ring, or the active table was full.",
		[]string{"node"}, func() []obs.Sample {
			st := c.Stats()
			return []obs.Sample{{Labels: []string{node}, Value: float64(st.DroppedEvents + st.ActiveOverflow)}}
		})
	reg.SampleGauges("lasthop_trace_ring_occupancy",
		"Completed traces currently retained in the bounded ring.",
		[]string{"node"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{node}, Value: float64(c.Stats().Ring)}}
		})
	reg.SampleGauges("lasthop_trace_active",
		"Traces still accumulating events (no terminal outcome yet).",
		[]string{"node"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{node}, Value: float64(c.Stats().Active)}}
		})
}
