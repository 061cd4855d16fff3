// Package trace records the observable timeline of notifications —
// arrivals, transfers, reads, retractions, link transitions — for
// debugging and for inspecting why a policy wasted or lost a particular
// message. It serves both the simulator (Buffer/Writer tracers over
// simulated time) and the live networked stack (Collector, which follows
// sampled notifications publisher → broker → proxy queues → device and attributes each terminal outcome to the queue decision that
// caused it). Tracing is optional and costs nothing when disabled (the
// nil Tracer records nothing).
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"lasthop/internal/msg"
)

// Kind classifies trace events.
type Kind string

// Trace event kinds. The first block is shared between the simulator and
// the live stack; the second block exists only on the live path, where a
// notification's lifecycle spans several processes.
const (
	KindArrival  Kind = "arrival"
	KindRetract  Kind = "retract"
	KindForward  Kind = "forward"
	KindRead     Kind = "read"
	KindLinkUp   Kind = "link-up"
	KindLinkDown Kind = "link-down"

	// KindPublish marks the broker accepting a publish (trace origin).
	KindPublish Kind = "publish-accept"
	// KindRoute marks the broker routing the notification through its
	// topic shard to local subscribers (Count = fan-out width).
	KindRoute Kind = "broker-route"
	// KindProxyRecv marks the last-hop proxy receiving the notification
	// from its upstream broker.
	KindProxyRecv Kind = "proxy-recv"
	// KindEnqueue marks the Figure 7 queue decision: Queue names the
	// stage (outgoing, prefetch, holding, delayed) and Limit/ThresholdS/
	// DelayS snapshot the tuner values in effect.
	KindEnqueue Kind = "enqueue"
	// KindTune marks an auto-tuner adjustment of the prefetch limit or
	// expiration threshold (no notification ID; topic-scoped).
	KindTune Kind = "tune"
	// KindDeviceRecv marks the device storing a forwarded notification.
	KindDeviceRecv Kind = "device-recv"
	// KindExpire marks expiration; Queue names where the notification
	// died (a proxy stage, or "device").
	KindExpire Kind = "expire"
	// KindDrop marks removal without delivery value: a rank retraction
	// purge, or rejection below the subscription threshold.
	KindDrop Kind = "drop"
	// KindDuplicate marks a duplicate-ID rejection at the broker.
	KindDuplicate Kind = "duplicate"
	// KindLost marks an irrecoverable in-flight loss discovered by §3.5
	// resume reconciliation.
	KindLost Kind = "lost"
	// KindResume marks a recoverable resume event (in-flight notification
	// re-queued after a last-hop reconnect).
	KindResume Kind = "resume-requeue"
)

// Event is one timeline record.
type Event struct {
	// At is the simulation instant.
	At time.Time `json:"at"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Topic is the affected topic, when applicable.
	Topic string `json:"topic,omitempty"`
	// ID is the affected notification, when applicable.
	ID msg.ID `json:"id,omitempty"`
	// Rank is the notification's rank at the event.
	Rank float64 `json:"rank,omitempty"`
	// Count carries a quantity (messages returned by a read, fan-out
	// width, or the size of the batch a forward traveled in).
	Count int `json:"count,omitempty"`
	// TraceID links the event to a distributed trace when the
	// notification carried a context; empty for unsampled notifications.
	TraceID string `json:"trace,omitempty"`
	// Node names the process that recorded the event (broker, proxy, or
	// device name). The Collector fills it in when left empty.
	Node string `json:"node,omitempty"`
	// Queue names the proxy stage the event concerns: outgoing, prefetch,
	// holding, delayed, or "device" for device-side storage events.
	Queue string `json:"queue,omitempty"`
	// Cause qualifies the event with the decision that produced it
	// (e.g. "quiet-window", "daily-cap", "rank-retraction").
	Cause string `json:"cause,omitempty"`
	// Limit is the prefetch limit in effect at the event, when relevant.
	Limit int `json:"limit,omitempty"`
	// ThresholdS is the expiration threshold (seconds) in effect.
	ThresholdS float64 `json:"thresholdS,omitempty"`
	// DelayS is the forwarding delay (seconds) in effect.
	DelayS float64 `json:"delayS,omitempty"`
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case KindRead:
		return fmt.Sprintf("%s %-9s topic=%s count=%d", e.At.Format(time.RFC3339), e.Kind, e.Topic, e.Count)
	case KindLinkUp, KindLinkDown:
		return fmt.Sprintf("%s %-9s", e.At.Format(time.RFC3339), e.Kind)
	default:
		return fmt.Sprintf("%s %-9s topic=%s id=%s rank=%.2f", e.At.Format(time.RFC3339), e.Kind, e.Topic, e.ID, e.Rank)
	}
}

// Tracer consumes events. A nil Tracer is valid and records nothing (use
// the package-level Record helper).
type Tracer interface {
	Record(e Event)
}

// Record forwards an event to t when tracing is enabled.
func Record(t Tracer, e Event) {
	if t != nil {
		t.Record(e)
	}
}

// Buffer is an in-memory tracer, optionally bounded to the most recent
// capacity events. It is safe for concurrent use.
type Buffer struct {
	mu       sync.Mutex
	capacity int
	events   []Event
	dropped  int
}

var _ Tracer = (*Buffer)(nil)

// NewBuffer returns a tracer retaining the most recent capacity events;
// capacity <= 0 means unbounded.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{capacity: capacity}
}

// Record stores an event, evicting the oldest beyond the capacity.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
	if b.capacity > 0 && len(b.events) > b.capacity {
		over := len(b.events) - b.capacity
		b.events = append(b.events[:0:0], b.events[over:]...)
		b.dropped += over
	}
}

// Events returns a copy of the retained events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Dropped returns how many events were evicted by the capacity bound.
func (b *Buffer) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Filter returns the retained events of one kind.
func (b *Buffer) Filter(kind Kind) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, e := range b.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Writer is a tracer streaming one line per event to an io.Writer. It is
// safe for concurrent use; write errors surface through Err.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

var _ Tracer = (*Writer)(nil)

// NewWriter returns a line-streaming tracer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Record writes the event as one line.
func (t *Writer) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintln(t.w, e.String())
}

// Err returns the first write error, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Multi fans events out to several tracers.
func Multi(tracers ...Tracer) Tracer { return multi(tracers) }

type multi []Tracer

func (m multi) Record(e Event) {
	for _, t := range m {
		Record(t, e)
	}
}
