package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"lasthop/internal/flight"
	"lasthop/internal/msg"
	"lasthop/internal/rankedq"
	"lasthop/internal/simtime"
	"lasthop/internal/stats"
	"lasthop/internal/trace"
)

// BatchForwarder is the proxy's downstream: each forwarding pass hands
// everything the policy releases — a drained outgoing queue, a prefetch
// refill, a read response — across the last hop in one call. A
// notification may be forwarded again when its rank was revised; devices
// deduplicate by ID and adopt the new rank. A batch is all-or-nothing: a
// plain error means none of it was delivered and the proxy re-queues all
// of it (a partially transmitted batch costs only redundant bytes, not
// duplicates), unless the error is a *PartialForward naming the delivered
// prefix.
type BatchForwarder interface {
	ForwardBatch(batch []*msg.Notification) error
}

// PartialForward is the error of a batch whose first Delivered
// notifications crossed the last hop before Err stopped the rest.
type PartialForward struct {
	Delivered int
	Err       error
}

func (e *PartialForward) Error() string {
	return fmt.Sprintf("%d delivered, then: %v", e.Delivered, e.Err)
}

// ForwardEach delivers a batch one notification at a time through fn, for
// downstreams that account per transfer (the simulated device). The first
// failure stops the batch and is reported as a *PartialForward.
func ForwardEach(batch []*msg.Notification, fn func(*msg.Notification) error) error {
	for i, n := range batch {
		if err := fn(n); err != nil {
			return &PartialForward{Delivered: i, Err: err}
		}
	}
	return nil
}

// Stats is the proxy's cumulative accounting.
type Stats struct {
	// Notifications counts arrivals from the routing substrate,
	// including rank revisions.
	Notifications int
	// Forwards counts messages pushed to the device, including rank-drop
	// signals.
	Forwards int
	// RankDropSignals counts forwards that only communicate a rank
	// revision of an already-forwarded notification.
	RankDropSignals int
	// Expirations counts notifications that expired while queued on the
	// proxy.
	Expirations int
	// Reads counts read requests from the device.
	Reads int
	// Rejected counts arrivals dropped at the edge: below the rank
	// threshold or already expired.
	Rejected int
	// Resumes counts session-resumption reconciliations after a device
	// reconnect.
	Resumes int
	// ResumeRequeued counts forwarded notifications that the resuming
	// device turned out not to have (lost in flight) and that were
	// re-queued for forwarding.
	ResumeRequeued int
	// ResumeLost counts forwarded notifications lost in flight whose
	// content the proxy no longer holds (expired or garbage-collected) —
	// irrecoverable losses.
	ResumeLost int
	// ReadConsumed counts notifications consumed by user reads, the
	// "read" side of the §3.1 waste metric (waste = forwarded but never
	// read). Together with Forwards and RankDropSignals it yields a live
	// waste%: WastePct(Forwards-RankDropSignals, ReadConsumed).
	ReadConsumed int
}

// Proxy is the last-hop proxy. It is single-threaded: every entry point
// must be invoked through the owning simtime.Scheduler (the Subscriber
// adapter and the wire server do this; the simulator is single-threaded by
// construction).
type Proxy struct {
	sched     simtime.Scheduler
	fwd       BatchForwarder
	networkUp bool
	topics    map[string]*topicState
	stats     Stats

	// tracer receives per-notification queue-decision events (enqueue,
	// forward, expire, drop, tune) when set. Nil — the default — keeps
	// every handler free of tracing work beyond one pointer comparison.
	tracer trace.Tracer

	// release is called exactly once per notification when the proxy
	// drops its last reference to it — at history eviction (forget), when
	// an arrival is discarded without being retained, and for every
	// remembered notification on RemoveTopic/Shutdown. Hosts install
	// burst.Notes.Put here so pooled notifications recycle; nil — the
	// default — keeps ordinary garbage-collected lifetimes.
	release func(*msg.Notification)

	// Scratch for the handlers, reused by every call: tryForwarding's
	// batch and the handles of its picks, and Read's candidates. The
	// scheduler serialises every proxy entry point, and
	// forwarders are done with the batch when they return.
	fwdScratch  []*msg.Notification
	pickScratch []int32
	readScratch []int32
}

// topicState carries Figure 7's per-topic variables.
type topicState struct {
	cfg TopicConfig

	// The one ID table: ids maps a remembered ID to its handle, which
	// indexes slots (the notification, its heap positions) and ents. The
	// arena is topic.history as a ring: full at HistoryLimit, each arrival
	// evicts the oldest, at head, and takes its handle. forwarded counts
	// topic.forwarded.
	ids       map[msg.ID]int32
	slots     []rankedq.Slot
	ents      []entry
	head      int32
	forwarded int

	// By stage (queues[nowhere] stays empty): outgoing must be forwarded
	// as soon as possible, prefetch passed expiration checks and the delay
	// stage, holding expires too soon to prefetch; read-only access.
	queues [inDelay]rankedq.Heap

	delays map[int32]delayedTimer // by handle: the delay stage (§3.4) and quiet windows

	// Figure 7's expiration_timeout, once per topic rather than once per
	// notification: expiry holds every armed deadline, and expiryTimer
	// (nil when disarmed) is the one scheduler entry, armed at expiryAt,
	// no later than the heap's earliest deadline. expiryFire is its
	// callback, bound once so re-arming allocates no closure. Both
	// schedulers honour a Cancel issued from a callback or Run, so a
	// disarmed timer never fires.
	expiry      rankedq.ExpiryHeap
	expiryTimer simtime.Timer
	expiryAt    time.Time
	expiryFire  func()

	queueSize     int // proxy's view of the client device queue
	prefetchLimit int
	expThreshold  time.Duration
	delay         time.Duration

	readSizes *stats.MovingAverage   // topic.old_reads
	readTimes *stats.IntervalAverage // topic.old_times
	expTimes  *stats.MovingAverage   // topic.exp_times (seconds)
	dropLags  *stats.MovingAverage   // rank-retraction lags (seconds), for AutoDelay

	arrivalTimes *stats.IntervalAverage // for the Rate policy
	rateTokens   float64

	// Daily on-line delivery cap accounting (§2.2 refinement).
	onlineDay  int
	onlineSent int
}

// stage is where a remembered notification waits: nowhere, one of the
// three queues, or the delay stage.
type stage uint8

const (
	nowhere stage = iota
	inOutgoing
	inPrefetch
	inHolding
	inDelay
)

// stageNames are the stages' names in trace events and errors.
var stageNames = [...]string{"", "outgoing", "prefetch", "holding", "delayed"}

// entry is a remembered notification's state beside its slot.
type entry struct {
	at     stage
	fwd    bool // in topic.forwarded
	armed  bool // in the expiry heap
	client bool // a client event of the read being handled
}

// push queues h, which waits nowhere, on queue s.
func (ts *topicState) push(h int32, s stage) {
	ts.ents[h].at = s
	ts.queues[s].Push(h)
}

// pop takes the best notification off queue s.
func (ts *topicState) pop(s stage) (int32, bool) {
	h, ok := ts.queues[s].PopBest()
	if ok {
		ts.ents[h].at = nowhere
	}
	return h, ok
}

// unstage takes h out of its queue or the delay stage, and returns where it
// waited.
func (ts *topicState) unstage(h int32) stage {
	s := ts.ents[h].at
	switch s {
	case nowhere:
		return s
	case inDelay:
		ts.delays[h].timer.Cancel()
		delete(ts.delays, h)
	default:
		ts.queues[s].Remove(h)
	}
	ts.ents[h].at = nowhere
	return s
}

// setForwarded puts h in topic.forwarded, or with on false takes it out.
func (ts *topicState) setForwarded(h int32, on bool) {
	if e := &ts.ents[h]; e.fwd != on {
		e.fwd = on
		if on {
			ts.forwarded++
		} else {
			ts.forwarded--
		}
	}
}

// compare orders handles by their notifications' rank order.
func (ts *topicState) compare(a, b int32) int { return ts.slots[a].N.Compare(ts.slots[b].N) }

// delayedTimer is one armed delay-stage or quiet-window timer plus the
// state a hibernating proxy must persist to re-arm it on rehydration: the
// instant it would fire and which release path (quietTimeout vs
// delayTimeout) it is on. The timer handle itself cannot cross a
// hibernation boundary.
type delayedTimer struct {
	timer  simtime.Timer
	fireAt time.Time
	quiet  bool
}

// quietRemaining reports whether the topic is inside a quiet window at the
// instant, and how long until the window ends.
func (ts *topicState) quietRemaining(now time.Time) (bool, time.Duration) {
	for _, w := range ts.cfg.Quiet {
		if in, rem := w.contains(now); in {
			return true, rem
		}
	}
	return false, 0
}

// dayIndex identifies the calendar day of an instant for cap accounting.
func dayIndex(t time.Time) int {
	y, m, d := t.Date()
	return y*10000 + int(m)*100 + d
}

// New returns a proxy bound to a scheduler and a forwarder. The network is
// initially considered up.
func New(sched simtime.Scheduler, fwd BatchForwarder) *Proxy {
	return &Proxy{
		sched:     sched,
		fwd:       fwd,
		networkUp: true,
		topics:    make(map[string]*topicState),
	}
}

// AddTopic registers a subscribed topic with its volume-limiting
// configuration.
func (p *Proxy) AddTopic(cfg TopicConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("add topic: %w", err)
	}
	if _, dup := p.topics[cfg.Name]; dup {
		return fmt.Errorf("add topic: %q already registered", cfg.Name)
	}
	cfg = cfg.withDefaults()
	ts := &topicState{
		cfg:          cfg,
		ids:          make(map[msg.ID]int32),
		delays:       make(map[int32]delayedTimer),
		expThreshold: cfg.ExpirationThreshold,
		delay:        cfg.Delay,
		readSizes:    stats.NewMovingAverage(cfg.StatsWindow),
		readTimes:    stats.NewIntervalAverage(cfg.StatsWindow),
		expTimes:     stats.NewMovingAverage(cfg.StatsWindow),
		dropLags:     stats.NewMovingAverage(cfg.StatsWindow),
		arrivalTimes: stats.NewIntervalAverage(cfg.StatsWindow),
	}
	for s := range ts.queues {
		ts.queues[s] = rankedq.NewHeap(&ts.slots)
	}
	ts.expiry = rankedq.NewExpiryHeap(&ts.slots)
	ts.prefetchLimit = ts.initialPrefetchLimit()
	ts.expiryFire = func() { p.expiryTimeout(ts) }
	p.topics[cfg.Name] = ts
	return nil
}

func (ts *topicState) initialPrefetchLimit() int {
	switch {
	case ts.cfg.PrefetchLimit > 0:
		return ts.cfg.PrefetchLimit
	case ts.cfg.AutoPrefetchLimit && ts.cfg.ReadSize > 0:
		return PrefetchLimitFactor * ts.cfg.ReadSize
	case ts.cfg.Policy == Buffer:
		return DefaultPrefetchLimit
	default:
		return 0
	}
}

// RemoveTopic unregisters a topic and cancels its timers.
func (p *Proxy) RemoveTopic(name string) error {
	ts, ok := p.topics[name]
	if !ok {
		return fmt.Errorf("remove topic: %q not registered", name)
	}
	p.drop(ts)
	delete(p.topics, name)
	return nil
}

// Topics returns the registered topic names, sorted.
func (p *Proxy) Topics() []string {
	out := make([]string, 0, len(p.topics))
	for name := range p.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NetworkUp reports the proxy's view of the last hop.
func (p *Proxy) NetworkUp() bool { return p.networkUp }

// SetNetwork is Figure 7's NETWORK handler: record the status and, on
// reconnection, resume forwarding.
func (p *Proxy) SetNetwork(up bool) {
	p.networkUp = up
	if up {
		for _, ts := range p.topics {
			p.tryForwarding(ts)
		}
	}
}

// Stats returns a copy of the cumulative accounting.
func (p *Proxy) Stats() Stats { return p.stats }

// SetTracer installs (or, with nil, removes) the tracer that receives
// per-notification queue-decision events. Like every other entry point it
// must be invoked through the owning scheduler.
func (p *Proxy) SetTracer(tr trace.Tracer) { p.tracer = tr }

// SetReleaser installs the hook called exactly once per notification when
// the proxy drops its last reference to it (see the release field). Like
// every other entry point it must be invoked through the owning
// scheduler, before any notification arrives.
func (p *Proxy) SetReleaser(fn func(*msg.Notification)) { p.release = fn }

// releaseNote hands a dropped notification to the releaser, if any.
func (p *Proxy) releaseNote(n *msg.Notification) {
	if p.release != nil && n != nil {
		p.release(n)
	}
}

// traceEvent stamps the scheduler clock onto the event and records it.
// Callers check p.tracer != nil first so the disabled path constructs no
// Event at all.
func (p *Proxy) traceEvent(e trace.Event) {
	e.At = p.sched.Now()
	p.tracer.Record(e)
}

// noteEvent builds a trace event about n at a queue, for a cause.
func noteEvent(kind trace.Kind, n *msg.Notification, queue, cause string) trace.Event {
	e := trace.Event{Kind: kind, Topic: n.Topic, ID: n.ID, Rank: n.Rank, Queue: queue, Cause: cause}
	if n.Trace != nil {
		e.TraceID = n.Trace.TraceID
	}
	return e
}

// traceNote records noteEvent's event when a tracer is installed.
func (p *Proxy) traceNote(kind trace.Kind, n *msg.Notification, queue, cause string) {
	if p.tracer != nil {
		p.traceEvent(noteEvent(kind, n, queue, cause))
	}
}

// traceDecision records a queue decision with the tuner values in effect
// (prefetch limit and expiration threshold), so a later waste or loss can
// be attributed to the exact policy state that produced it.
func (p *Proxy) traceDecision(kind trace.Kind, ts *topicState, n *msg.Notification, queue, cause string) {
	if p.tracer == nil {
		return
	}
	e := noteEvent(kind, n, queue, cause)
	e.Limit = ts.prefetchLimit
	e.ThresholdS = ts.expThreshold.Seconds()
	p.traceEvent(e)
}

// joinCause composes an upstream decision cause with a local one.
func joinCause(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "; " + b
}

// Notify is Figure 7's NOTIFICATION handler: a new event (or a rank
// revision re-arriving under a known ID) enters the proxy.
func (p *Proxy) Notify(n *msg.Notification) {
	ts, ok := p.topics[n.Topic]
	if !ok {
		p.releaseNote(n) // not subscribed here
		return
	}
	p.stats.Notifications++
	now := p.sched.Now()

	if h, seen := ts.ids[n.ID]; seen {
		// Re-arrival of a known ID is a rank revision; only the rank of
		// the arriving copy is used, so it is dropped here.
		p.applyRank(ts, h, n.Rank)
		p.releaseNote(n)
		return
	}
	if n.Expired(now) {
		p.stats.Rejected++
		p.traceNote(trace.KindExpire, n, "ingress", "already expired on arrival at the proxy")
		p.releaseNote(n)
		return
	}

	ts.arrivalTimes.Observe(now)
	if ts.cfg.Policy == Rate {
		ts.rateTokens += ts.rateRatio()
		if burst := float64(max(1, ts.cfg.ReadSize)); ts.rateTokens > burst {
			ts.rateTokens = burst
		}
	}

	// Record every arrival in the history so rank revisions can refer to
	// it, even when the rank is currently below the threshold.
	h := p.remember(ts, n)

	if n.Rank < ts.cfg.RankThreshold {
		p.stats.Rejected++
		p.traceNote(trace.KindDrop, n, "ingress", "rank below the subscription threshold at arrival")
		p.recomputeDelay(ts)
		return
	}

	if !n.NeverExpires() {
		ts.expTimes.Add(n.RemainingLife(now).Seconds())
		p.scheduleExpiry(ts, h)
	}
	p.enqueue(ts, h, now)
	p.recomputeDelay(ts)
	p.tryForwarding(ts)
}

// enqueue places an acceptable, unexpired notification into the right
// stage: outgoing for on-line delivery (on-line topics, the Online policy,
// and on-demand interrupts), holding when it expires before the expiration
// threshold, the delay stage when the topic delays, and the prefetch queue
// otherwise. The §2.2 refinements apply on the on-line path: quiet windows
// defer delivery to the window's end, and a daily cap overflows onto the
// on-demand staging path.
func (p *Proxy) enqueue(ts *topicState, h int32, now time.Time) {
	n := ts.slots[h].N
	online := ts.cfg.Mode == msg.OnLine || ts.cfg.Policy == Online
	if !online && ts.cfg.InterruptRank > 0 && n.Rank >= ts.cfg.InterruptRank {
		// An on-demand topic interrupts for urgent content ("a tornado
		// warning on a weather topic").
		online = true
	}
	if online {
		// Quiet windows defer before any cap accounting: an event held
		// through the night must draw on the budget of the day it is
		// actually delivered, not the day it arrived.
		if quiet, rem := ts.quietRemaining(now); quiet {
			if p.tracer != nil {
				e := noteEvent(trace.KindEnqueue, n, "delayed", "quiet-window")
				e.DelayS = rem.Seconds()
				p.traceEvent(e)
			}
			p.delay(ts, h, rem, now.Add(rem), true)
			return
		}
		if ts.chargeOnlineCap(now) {
			p.traceDecision(trace.KindEnqueue, ts, n, "outgoing", "on-line delivery")
			ts.push(h, inOutgoing)
			return
		}
		// The day's budget is spent: overflow onto the staging path.
		p.enqueueStaged(ts, h, now, "daily-cap")
		return
	}
	p.enqueueStaged(ts, h, now, "")
}

// chargeOnlineCap charges one on-line delivery against the topic's daily
// cap, resetting the counter on a day change. It reports false — charging
// nothing — when the day's budget is exhausted. A topic without a cap
// always has budget. Charging happens at push-to-outgoing time, never when
// an event is merely deferred, so quiet-window releases account against
// the delivery day.
func (ts *topicState) chargeOnlineCap(now time.Time) bool {
	if ts.cfg.DailyOnlineCap <= 0 {
		return true
	}
	if day := dayIndex(now); day != ts.onlineDay {
		ts.onlineDay, ts.onlineSent = day, 0
	}
	if ts.onlineSent >= ts.cfg.DailyOnlineCap {
		return false
	}
	ts.onlineSent++
	return true
}

// enqueueStaged places an event on the on-demand staging path: holding
// when it expires before the expiration threshold, the delay stage when
// the topic delays, and the prefetch queue otherwise. cause carries the
// upstream decision that diverted the event here (e.g. a spent daily cap)
// into the trace record.
func (p *Proxy) enqueueStaged(ts *topicState, h int32, now time.Time, cause string) {
	n := ts.slots[h].N
	if thr := ts.expThreshold; thr > 0 && !n.NeverExpires() && n.RemainingLife(now) < thr {
		p.traceDecision(trace.KindEnqueue, ts, n, "holding",
			joinCause(cause, "expires before the expiration threshold"))
		ts.push(h, inHolding)
		return
	}
	if d := ts.delay; d > 0 {
		if p.tracer != nil {
			e := noteEvent(trace.KindEnqueue, n, "delayed", joinCause(cause, "delay stage"))
			e.DelayS = d.Seconds()
			e.Limit = ts.prefetchLimit
			e.ThresholdS = ts.expThreshold.Seconds()
			p.traceEvent(e)
		}
		p.delay(ts, h, d, now.Add(d), false)
		return
	}
	p.traceDecision(trace.KindEnqueue, ts, n, "prefetch", cause)
	ts.push(h, inPrefetch)
}

// delay parks h in the delay stage until its timer, due after d at fireAt,
// releases it through quietTimeout (a quiet window) or delayTimeout.
func (p *Proxy) delay(ts *topicState, h int32, d time.Duration, fireAt time.Time, quiet bool) {
	id := ts.slots[h].N.ID
	var fire func()
	if quiet {
		fire = func() { p.quietTimeout(ts, id) }
	} else {
		fire = func() { p.delayTimeout(ts, id) }
	}
	ts.delays[h] = delayedTimer{timer: p.sched.Schedule(d, fire), fireAt: fireAt, quiet: quiet}
	ts.ents[h].at = inDelay
}

// released ends the delay of a notification whose timer fired, unless it
// has left the delay stage (or the history) since.
func (ts *topicState) released(id msg.ID) (h int32, ok bool) {
	h, ok = ts.ids[id]
	if !ok || ts.ents[h].at != inDelay {
		return h, false
	}
	delete(ts.delays, h)
	ts.ents[h].at = nowhere
	return h, true
}

// quietTimeout releases an event held through a quiet window. If another
// window has already begun, the event is re-deferred.
func (p *Proxy) quietTimeout(ts *topicState, id msg.ID) {
	h, ok := ts.released(id)
	if !ok {
		return
	}
	now := p.sched.Now()
	n := ts.slots[h].N
	if n.Expired(now) || n.Rank < ts.cfg.RankThreshold {
		return
	}
	if quiet, rem := ts.quietRemaining(now); quiet {
		p.delay(ts, h, rem, now.Add(rem), true)
		return
	}
	// The daily cap is charged at release time: a window crossing
	// midnight draws on the new day's budget, and overflow rides the
	// staging path like any other capped arrival.
	if ts.chargeOnlineCap(now) {
		flight.Record(flight.SubCore, flight.KindQuietRelease, -1, flight.TopicHash(ts.cfg.Name), 1)
		p.traceDecision(trace.KindEnqueue, ts, n, "outgoing", "quiet-window released")
		ts.push(h, inOutgoing)
	} else {
		flight.Record(flight.SubCore, flight.KindQuietRelease, -1, flight.TopicHash(ts.cfg.Name), 0)
		p.enqueueStaged(ts, h, now, "daily-cap after quiet-window")
	}
	p.tryForwarding(ts)
}

// remember records an event in the topic history and returns its handle.
// A full history first forgets its oldest event, whose handle the new one
// takes over.
func (p *Proxy) remember(ts *topicState, n *msg.Notification) int32 {
	h := int32(len(ts.slots))
	if limit := ts.cfg.HistoryLimit; limit > 0 && len(ts.slots) == limit {
		h = ts.head
		ts.head = (h + 1) % int32(limit)
		p.forget(ts, h)
	} else {
		ts.slots = append(ts.slots, rankedq.Slot{})
		ts.ents = append(ts.ents, entry{})
	}
	ts.slots[h].N = n
	ts.ids[n.ID] = h
	return h
}

// forget removes every trace of an event: queues, timers, bookkeeping,
// and zeroes its slot and entry. It is the single terminal point of a
// remembered notification's life on this proxy, so the releaser fires
// here.
func (p *Proxy) forget(ts *topicState, h int32) {
	ts.unstage(h)
	// The topic's expiry timer stays armed: if it fires with nothing due,
	// it re-arms at the next deadline.
	if ts.ents[h].armed {
		ts.expiry.Remove(h)
	}
	ts.setForwarded(h, false)
	n := ts.slots[h].N
	delete(ts.ids, n.ID)
	ts.slots[h], ts.ents[h] = rankedq.Slot{}, entry{}
	p.releaseNote(n)
}

// scheduleExpiry arms Figure 7's expiration_timeout for the event: it
// joins the topic's expiry heap, and the topic's timer moves only if this
// deadline is earlier than the one it is armed at.
func (p *Proxy) scheduleExpiry(ts *topicState, h int32) {
	ts.ents[h].armed = true
	ts.expiry.Push(h)
	p.armExpiry(ts)
}

// armExpiry points the topic's expiry timer at the heap's earliest
// deadline, unless it is already armed at or before it.
func (p *Proxy) armExpiry(ts *topicState) {
	next, ok := ts.expiry.NextExpiry()
	if !ok {
		return
	}
	if ts.expiryTimer != nil {
		if !next.Before(ts.expiryAt) {
			return
		}
		ts.disarmExpiry()
	}
	ts.expiryAt = next
	ts.expiryTimer = p.sched.Schedule(next.Sub(p.sched.Now()), ts.expiryFire)
}

// disarmExpiry cancels the topic's expiry timer.
func (ts *topicState) disarmExpiry() {
	if ts.expiryTimer == nil {
		return
	}
	ts.expiryTimer.Cancel()
	ts.expiryTimer = nil
}

// expiryTimeout is the topic's expiry timer firing: every due notification
// expires, in (Expires, ID) order, then the timer re-arms at the next
// deadline.
func (p *Proxy) expiryTimeout(ts *topicState) {
	ts.expiryTimer = nil
	now := p.sched.Now()
	for {
		h, ok := ts.expiry.PopDue(now)
		if !ok {
			break
		}
		ts.ents[h].armed = false
		p.expirationTimeout(ts, h)
	}
	p.armExpiry(ts)
}

// clearTimers cancels every armed timer of the topic and forgets the
// deadlines behind them.
func (ts *topicState) clearTimers() {
	for h, t := range ts.delays {
		t.timer.Cancel()
		delete(ts.delays, h)
	}
	ts.disarmExpiry()
	ts.expiry.Clear()
}

// drop cancels the topic's timers and releases every remembered
// notification.
func (p *Proxy) drop(ts *topicState) {
	ts.clearTimers()
	for _, s := range ts.slots {
		p.releaseNote(s.N)
	}
	clear(ts.ids)
}

// expirationTimeout removes an expired event from its queue or the delay
// stage (Figure 7).
func (p *Proxy) expirationTimeout(ts *topicState, h int32) {
	s := ts.unstage(h)
	if s == nowhere {
		return
	}
	p.stats.Expirations++
	if p.tracer != nil {
		e := noteEvent(trace.KindExpire, ts.slots[h].N, stageNames[s], "")
		if s == inOutgoing && !p.networkUp {
			e.Cause = "expired while the last hop was down"
		}
		e.Limit = ts.prefetchLimit
		e.ThresholdS = ts.expThreshold.Seconds()
		p.traceEvent(e)
	}
}

// delayTimeout moves a delayed event into the prefetch queue (Figure 7).
func (p *Proxy) delayTimeout(ts *topicState, id msg.ID) {
	h, ok := ts.released(id)
	if !ok {
		return
	}
	n := ts.slots[h].N
	if n.Expired(p.sched.Now()) || n.Rank < ts.cfg.RankThreshold {
		return
	}
	p.traceDecision(trace.KindEnqueue, ts, n, "prefetch", "delay elapsed")
	ts.push(h, inPrefetch)
	p.tryForwarding(ts)
}

// ApplyRankUpdate revises the rank of a previously published notification
// (§3.4).
func (p *Proxy) ApplyRankUpdate(u msg.RankUpdate) {
	ts, ok := p.topics[u.Topic]
	if !ok {
		return
	}
	p.stats.Notifications++
	if h, ok := ts.ids[u.ID]; ok { // else never heard of it, or already garbage-collected
		p.applyRank(ts, h, u.NewRank)
	}
}

// applyRank implements Figure 7's rank-revision branch.
func (p *Proxy) applyRank(ts *topicState, h int32, rank float64) {
	n := ts.slots[h].N
	oldRank := n.Rank
	n.Rank = rank

	if rank < ts.cfg.RankThreshold {
		// Rank dropped below the threshold: purge it from the staging
		// queues.
		purged := ""
		if s := ts.ents[h].at; s == inHolding || s == inPrefetch || s == inDelay {
			purged = stageNames[ts.unstage(h)]
		}
		if ts.cfg.AutoDelay && oldRank >= ts.cfg.RankThreshold {
			ts.dropLags.Add(p.sched.Now().Sub(n.Published).Seconds())
			p.recomputeDelay(ts)
		}
		if ts.ents[h].fwd && !n.Expired(p.sched.Now()) {
			// Tell the client of the rank drop so it can discard its
			// copy. (An expired message needs no signal: the device
			// purges expired content on its own, and its expiry here
			// has already fired.)
			p.traceNote(trace.KindEnqueue, n, "outgoing", "rank-retraction signal to the device")
			if ts.ents[h].at == inOutgoing {
				ts.queues[inOutgoing].Fix(h)
			} else {
				ts.push(h, inOutgoing)
			}
		} else {
			// Don't bother the client.
			if ts.ents[h].at == inOutgoing {
				purged = stageNames[ts.unstage(h)]
			}
			if purged != "" && !ts.ents[h].fwd {
				// Terminal for a never-forwarded event; a forwarded one is
				// finished by the device when its own copy goes.
				p.traceDecision(trace.KindDrop, ts, n, purged,
					"rank retracted below the subscription threshold")
			}
		}
		p.tryForwarding(ts)
		return
	}

	// Rank is (still or again) acceptable: revise in place wherever the
	// event lives.
	switch s := ts.ents[h].at; {
	case s == inDelay:
		// The rank is recorded on the notification; used when the delay
		// elapses.
	case s != nowhere:
		ts.queues[s].Fix(h)
	case n.Expired(p.sched.Now()):
	case ts.ents[h].fwd:
		// The client holds a stale rank; push the revision.
		ts.push(h, inOutgoing)
	case oldRank < ts.cfg.RankThreshold:
		// Previously unacceptable, now boosted above the threshold:
		// (re-)enter the normal staging path.
		if !n.NeverExpires() && !ts.ents[h].armed {
			ts.expTimes.Add(n.RemainingLife(p.sched.Now()).Seconds())
			p.scheduleExpiry(ts, h)
		}
		p.enqueue(ts, h, p.sched.Now())
	}
	p.tryForwarding(ts)
}

// Read is Figure 7's READ handler: the device relays a user read with the
// number of wanted items, its current queue size, and the IDs of its
// highest-ranked local events. A read is not a request for more data but a
// request for better data if it exists; the proxy pushes only the
// difference.
func (p *Proxy) Read(req msg.ReadRequest) error {
	if err := req.Validate(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	ts, ok := p.topics[req.Topic]
	if !ok {
		return fmt.Errorf("read: topic %q not registered", req.Topic)
	}
	p.stats.Reads++
	now := p.sched.Now()
	oldLimit, oldThr := ts.prefetchLimit, ts.expThreshold

	queued := ts.queues[inOutgoing].Len() + ts.queues[inPrefetch].Len() + ts.queues[inHolding].Len()
	n := req.N
	unlimited := n == 0
	if unlimited {
		n = queued + len(req.ClientEvents)
	}

	// Figure 7: remember N and the read instant; retune the prefetch
	// limit and the expiration threshold. Peek requests are cache
	// refills, not user reads, and leave the statistics alone.
	if !req.Peek {
		ts.readTimes.Observe(now)
		if ts.cfg.AutoExpirationThreshold {
			ts.expThreshold = ts.readTimes.MeanOr(ts.cfg.ExpirationThreshold)
		}
	}

	// best ← get_highest_ranked(N, outgoing ∪ prefetch ∪ holding)
	// difference ← get_highest_ranked(N, best ∪ client_events) \ client_events
	// Client events are marked on their entries until the difference is
	// taken, and lead the candidates; best follows them, less the marked.
	combined := p.readScratch[:0]
	want := n // best's size; n goes on to count the slots left
	for _, id := range req.ClientEvents {
		if h, ok := ts.ids[id]; ok {
			ts.ents[h].client = true
			combined = append(combined, h)
		} else {
			// The proxy no longer remembers this event; it cannot be
			// displaced by anything it would send, so it occupies a
			// slot unconditionally.
			n--
		}
	}
	clients := len(combined)
	all := ts.bestAcross(combined, want)
	combined = all[:clients]
	for _, h := range all[clients:] {
		if !ts.ents[h].client {
			combined = append(combined, h)
		}
	}
	p.readScratch = combined[:0]
	slices.SortFunc(combined, ts.compare)
	n = max(0, min(n, len(combined)))
	// Under pure on-demand, only explicitly requested messages are ever
	// transferred (§3.2): a read arriving during an outage transfers
	// nothing, rather than deferring the selection to reconnection. The
	// prefetching policies keep Figure 7's deferral through the outgoing
	// queue.
	promote := ts.cfg.Policy != OnDemand || p.networkUp
	sent := 0
	for _, h := range combined[:n] {
		if !promote || ts.ents[h].client {
			continue
		}
		// Promote from whichever staging queue holds it; events already
		// in outgoing stay there.
		if ts.ents[h].at != inOutgoing {
			ts.unstage(h)
			p.traceDecision(trace.KindEnqueue, ts, ts.slots[h].N, "outgoing", "promoted by a read request")
			ts.push(h, inOutgoing)
		}
		sent++
	}
	for _, h := range combined {
		ts.ents[h].client = false
	}
	if !req.Peek {
		if unlimited {
			ts.readSizes.Add(float64(sent + len(req.ClientEvents)))
		} else {
			ts.readSizes.Add(float64(req.N))
		}
	}

	// Update the proxy's view of the client queue: the device reported
	// its size including the N it is requesting (Figure 7); a user read
	// is about to consume up to N of what is available, and whatever this
	// request promotes into the outgoing queue is counted back in by
	// do_forward on transfer. A peek consumes nothing.
	switch {
	case req.Peek:
		ts.queueSize = req.QueueSize
	case unlimited:
		p.stats.ReadConsumed += req.QueueSize + sent
		ts.queueSize = 0
	default:
		consumed := min(req.N, req.QueueSize+sent)
		p.stats.ReadConsumed += consumed
		ts.queueSize = max(0, req.QueueSize-consumed)
	}
	if ts.cfg.AutoPrefetchLimit && !req.Peek {
		ts.retunePrefetchLimit()
	}
	if p.tracer != nil && !req.Peek &&
		(ts.prefetchLimit != oldLimit || ts.expThreshold != oldThr) {
		p.traceEvent(trace.Event{
			Kind: trace.KindTune, Topic: ts.cfg.Name,
			Limit: ts.prefetchLimit, ThresholdS: ts.expThreshold.Seconds(),
			Cause: "retuned by read statistics",
		})
	}
	p.tryForwarding(ts)
	return nil
}

// Resume reconciles the proxy with a device that reconnected after an
// outage: have is the set of notification IDs still queued on the device,
// read the IDs its user has consumed (the §3.5 read-ID sets, replayed
// across the session boundary). Forwarded notifications in neither set
// were lost in flight — pushed into a connection that died before
// delivery — and are re-queued for forwarding while their content is still
// known and unexpired. Conversely, IDs the device already read are removed
// from the staging queues so they are never transferred again. The proxy's
// view of the client queue is reset to the device's report.
func (p *Proxy) Resume(topic string, have, read msg.IDSet) error {
	ts, ok := p.topics[topic]
	if !ok {
		return fmt.Errorf("resume: topic %q not registered", topic)
	}
	p.stats.Resumes++
	now := p.sched.Now()

	// Forwarded-but-absent IDs were lost in flight.
	for i := range ts.ents {
		h := int32(i)
		n := ts.slots[h].N
		if !ts.ents[h].fwd || have.Contains(n.ID) || read.Contains(n.ID) {
			continue
		}
		ts.setForwarded(h, false)
		if n.Expired(now) {
			p.stats.ResumeLost++
			p.traceNote(trace.KindLost, n, "", "lost in flight across a reconnect; content no longer recoverable")
			continue
		}
		if ts.ents[h].at != nowhere {
			// Already staged for (re-)delivery; nothing to recover.
			continue
		}
		p.traceNote(trace.KindResume, n, "outgoing", "re-queued after loss in flight")
		ts.push(h, inOutgoing)
		p.stats.ResumeRequeued++
	}

	// IDs the user consumed must never be transferred again, even if the
	// proxy (for example after a crash recovery) still stages them.
	for id := range read {
		if h, ok := ts.ids[id]; ok && ts.ents[h].at != nowhere && ts.ents[h].at != inDelay {
			ts.unstage(h)
			ts.setForwarded(h, true)
		}
	}

	ts.queueSize = len(have)
	p.tryForwarding(ts)
	return nil
}

// bestAcross appends the handles of the up-to-n best notifications across
// the three queues to dst in rank order, without removing them.
func (ts *topicState) bestAcross(dst []int32, n int) []int32 {
	if n <= 0 {
		return dst
	}
	start := len(dst)
	for s := inOutgoing; s <= inHolding; s++ {
		dst = ts.queues[s].AppendBest(dst, n)
	}
	slices.SortFunc(dst[start:], ts.compare)
	return dst[:min(start+n, len(dst))]
}

// tryForwarding is Figure 7's try_forwarding: drain the outgoing queue,
// then prefetch according to the policy while there is room. The whole
// burst is collected first and pushed in one call; the buffer policy's
// room check uses the queue growth the burst will cause.
func (p *Proxy) tryForwarding(ts *topicState) {
	if !p.networkUp {
		return
	}
	picks := p.pickScratch[:0]
	// newCount predicts the client-queue growth of the batch so far. An ID
	// sits in at most one queue, so no pick is counted twice.
	newCount := 0
	for {
		h, ok := ts.pop(inOutgoing)
		if !ok {
			break
		}
		picks = append(picks, h)
		if !ts.ents[h].fwd {
			newCount++
		}
	}
	// Everything past this index was picked opportunistically from the
	// prefetch queue; undelivered, it must go back there, not be promoted.
	fromOutgoing := len(picks)
	rateSpent := 0
	switch ts.cfg.Policy {
	case Buffer:
		for ts.queueSize+newCount < ts.prefetchLimit {
			h, ok := ts.pop(inPrefetch)
			if !ok {
				break
			}
			picks = append(picks, h)
			if !ts.ents[h].fwd {
				newCount++
			}
		}
	case Rate:
		for ts.rateTokens >= 1 {
			h, ok := ts.pop(inPrefetch)
			if !ok {
				break
			}
			picks = append(picks, h)
			ts.rateTokens--
			rateSpent++
		}
	case Online, OnDemand:
		// Online routes everything through outgoing; OnDemand never
		// prefetches.
	}
	p.pickScratch = picks[:0]
	if len(picks) == 0 {
		return
	}
	batch := p.fwdScratch[:0]
	for _, h := range picks {
		batch = append(batch, ts.slots[h].N)
	}
	p.fwdScratch = batch[:0]
	err := p.fwd.ForwardBatch(batch)
	delivered := len(batch)
	if err != nil {
		// Declared on the error path only: errors.As moves it to the heap.
		var partial *PartialForward
		delivered = 0
		if errors.As(err, &partial) {
			delivered = partial.Delivered
		}
	}
	for i, h := range picks[:delivered] {
		p.stats.Forwards++
		signal := ts.ents[h].fwd
		if p.tracer != nil {
			e := noteEvent(trace.KindForward, batch[i], "outgoing", "")
			e.Count = len(batch)
			if i >= fromOutgoing {
				e.Queue = "prefetch"
			}
			e.Limit = ts.prefetchLimit
			e.ThresholdS = ts.expThreshold.Seconds()
			if signal {
				e.Cause = "rank-revision signal"
			}
			p.traceEvent(e)
		}
		if signal {
			// A re-forward only revises the client's copy; it does not
			// grow the client queue.
			p.stats.RankDropSignals++
			continue
		}
		ts.setForwarded(h, true)
		ts.queueSize++
	}
	if err == nil {
		return
	}
	// Every undelivered pick returns to the queue it came from.
	// Re-queueing prefetch picks into outgoing would promote opportunistic
	// prefetches into must-send-ASAP messages that bypass the
	// prefetch-limit room check after reconnect.
	for i := delivered; i < len(picks); i++ {
		origin := inOutgoing
		if i >= fromOutgoing {
			origin = inPrefetch
		}
		ts.push(picks[i], origin)
	}
	// Rate picks are the batch's tail: refund the undelivered ones.
	ts.rateTokens += float64(min(rateSpent, len(batch)-delivered))
	p.networkUp = false
}

// rateRatio estimates reads-per-arrival for the Rate policy: the ratio of
// the user's consumption rate (ReadSize per read interval) to the event
// arrival rate.
func (ts *topicState) rateRatio() float64 {
	interRead, ok := ts.readTimes.Mean()
	if !ok || interRead <= 0 {
		return 1 // no estimate yet: forward freely
	}
	interArrival, ok := ts.arrivalTimes.Mean()
	if !ok || interArrival <= 0 {
		return 1
	}
	readSize := ts.cfg.ReadSize
	if readSize == 0 {
		return 1
	}
	ratio := (float64(readSize) / interRead.Seconds()) * interArrival.Seconds()
	if ratio > 1 {
		ratio = 1
	}
	return ratio
}

// retunePrefetchLimit sets the prefetch limit to PrefetchLimitFactor times
// the user's average daily read volume (§3.2: the sweet spot's "low end
// corresponds to the average number of messages a user reads per day", and
// "it is safe to set the prefetch limit to twice that amount"). The daily
// volume is the moving average of read sizes scaled by the estimated reads
// per day; before an interval estimate exists, one read per day is
// assumed.
func (ts *topicState) retunePrefetchLimit() {
	mean, ok := ts.readSizes.Mean()
	if !ok {
		return
	}
	perDay := 1.0
	if interRead, ok := ts.readTimes.Mean(); ok && interRead > 0 {
		perDay = float64(24*time.Hour) / float64(interRead)
	}
	limit := int(mean*perDay*PrefetchLimitFactor + 0.5)
	if limit < 1 {
		limit = 1
	}
	ts.prefetchLimit = limit
}

// recomputeDelay is Figure 7's delay_function(topic.history): with
// AutoDelay the delay tracks 1.5 times the average observed lag between
// publication and rank retraction (zero until a retraction is seen).
func (p *Proxy) recomputeDelay(ts *topicState) {
	if !ts.cfg.AutoDelay {
		return
	}
	mean, ok := ts.dropLags.Mean()
	if !ok {
		ts.delay = ts.cfg.Delay
		return
	}
	ts.delay = time.Duration(mean * 1.5 * float64(time.Second))
}

// TopicSnapshot is a read-only view of a topic's state for inspection,
// tests, and the CLI tools.
type TopicSnapshot struct {
	Name                string
	Policy              PolicyKind
	Mode                msg.DeliveryMode
	Outgoing            int
	Prefetch            int
	Holding             int
	Delayed             int
	Forwarded           int
	History             int
	QueueSizeView       int
	PrefetchLimit       int
	ExpirationThreshold time.Duration
	Delay               time.Duration
}

// Snapshot returns the current state of a topic.
func (p *Proxy) Snapshot(topic string) (TopicSnapshot, bool) {
	ts, ok := p.topics[topic]
	if !ok {
		return TopicSnapshot{}, false
	}
	return TopicSnapshot{
		Name:                ts.cfg.Name,
		Policy:              ts.cfg.Policy,
		Mode:                ts.cfg.Mode,
		Outgoing:            ts.queues[inOutgoing].Len(),
		Prefetch:            ts.queues[inPrefetch].Len(),
		Holding:             ts.queues[inHolding].Len(),
		Delayed:             len(ts.delays),
		Forwarded:           ts.forwarded,
		History:             len(ts.ids),
		QueueSizeView:       ts.queueSize,
		PrefetchLimit:       ts.prefetchLimit,
		ExpirationThreshold: ts.expThreshold,
		Delay:               ts.delay,
	}, true
}
