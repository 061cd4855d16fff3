// Package msg defines the message model of the volume-limiting
// publish/subscribe system: notifications annotated with the publisher-side
// volume-limiting attributes Rank and Expiration, subscriptions annotated
// with the subscriber-side thresholds Max and Threshold, and the auxiliary
// records (rank updates, read requests) exchanged between brokers, proxies,
// and devices.
package msg

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ID uniquely identifies a notification. IDs are scoped to the publisher
// that minted them; the pubsub substrate guarantees that a publisher never
// reuses an ID for a different event.
type ID string

// NoID is the zero ID, never assigned to a real notification.
const NoID ID = ""

// DeliveryMode selects how notifications on a topic reach the user.
type DeliveryMode int

const (
	// OnLine topics are forwarded to the device as soon as the last-hop
	// connection allows, interrupting the user.
	OnLine DeliveryMode = iota + 1
	// OnDemand topics accumulate on the proxy (and, with prefetching, on
	// the device) until the user explicitly checks messages.
	OnDemand
)

// String returns the mode name used in configuration files and wire frames.
func (m DeliveryMode) String() string {
	switch m {
	case OnLine:
		return "on-line"
	case OnDemand:
		return "on-demand"
	default:
		return "mode(" + strconv.Itoa(int(m)) + ")"
	}
}

// ParseDeliveryMode parses the textual form produced by String.
func ParseDeliveryMode(s string) (DeliveryMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "on-line", "online":
		return OnLine, nil
	case "on-demand", "ondemand":
		return OnDemand, nil
	default:
		return 0, fmt.Errorf("unknown delivery mode %q", s)
	}
}

// Rank bounds used for validation. Ranks indicate a notification's
// importance relative to other notifications on its topic; the scale is
// topic-specific but must be finite and non-negative (the paper's example
// uses 0..5).
const (
	MinRank = 0.0
	MaxRank = 1000.0
)

// Notification is one event published on a topic, carrying the two
// publisher-side volume-limiting attributes described in §2.1 of the paper.
type Notification struct {
	// ID identifies the notification; rank updates refer to it.
	ID ID `json:"id"`
	// Topic names the topic the notification was published on.
	Topic string `json:"topic"`
	// Publisher identifies the publishing principal.
	Publisher string `json:"publisher,omitempty"`
	// Rank is the notification's importance relative to other
	// notifications on its topic. Higher is more important.
	Rank float64 `json:"rank"`
	// Published is the instant the notification entered the system.
	Published time.Time `json:"published"`
	// Expires is the instant after which the notification is no longer
	// relevant and should be discarded from queues. The zero time means
	// the notification never expires.
	Expires time.Time `json:"expires,omitempty"`
	// Payload is the opaque application content.
	Payload []byte `json:"payload,omitempty"`
	// Trace is the optional distributed-tracing context attached to
	// sampled notifications. It is deliberately excluded from the
	// notification's own JSON form (journals never see it); the wire
	// layer moves it between nodes as an explicit frame field on every
	// push of a notification that carries one. The pointer may be shared
	// between fan-out clones — treat the pointed-to context as immutable
	// and use TraceContext.WithHop to extend it.
	Trace *TraceContext `json:"-"`

	// poolMark records the notification's free-pool provenance (see
	// internal/burst). Unexported so encoding/json never sees it; a
	// struct value-copy carries the mark with it, which is why every
	// copy site that creates an independently owned notification must
	// clear it back to PoolForeign.
	poolMark PoolMark

	// share, when non-nil, marks this notification as a copy-on-write
	// broadcast member: Payload (and Trace, unless a branch replaced it)
	// alias the group owner's allocations and must never be mutated or
	// retained past release. The burst pool's Put interprets the group;
	// everything that creates an independently owned copy (Clone,
	// CopyFrom) leaves the copy group-free.
	share *ShareGroup
}

// ShareGroup is the reference count behind one copy-on-write broadcast:
// a fan-out of envelope clones that alias the owner notification's payload
// bytes. The group holds the owner until the last member releases; the
// release driver (internal/burst) then recycles the owner itself. It lives
// in msg, next to the field it governs, so the pool layer can stay free of
// Notification internals.
type ShareGroup struct {
	refs  atomic.Int32
	owner *Notification
}

// NewShareGroup builds a group of size members around the owner. The
// caller transfers ownership of owner to the group: nothing may release
// owner directly once the group exists.
func NewShareGroup(owner *Notification, members int32) *ShareGroup {
	g := &ShareGroup{owner: owner}
	g.refs.Store(members)
	return g
}

// Owner returns the notification whose allocations the members alias.
func (g *ShareGroup) Owner() *Notification { return g.owner }

// Refs returns the members not yet released.
func (g *ShareGroup) Refs() int32 { return g.refs.Load() }

// Release drops one membership and reports whether this was the last —
// the caller then owns (and must release) the group's owner.
func (g *ShareGroup) Release() bool { return g.refs.Add(-1) == 0 }

// ShareGroup returns the copy-on-write group this notification belongs
// to, or nil for an independently owned notification.
func (n *Notification) ShareGroup() *ShareGroup { return n.share }

// ShareFrom turns n into an envelope member of group g: every field is
// copied from src, but Payload aliases src's bytes and Trace shares src's
// pointer instead of being deep-copied. n's own pool provenance is
// preserved; n's previous payload capacity is abandoned (a shared member
// must never return aliased bytes to a pool as its own).
func (n *Notification) ShareFrom(src *Notification, g *ShareGroup) {
	mark := n.poolMark
	*n = *src
	n.poolMark = mark
	n.share = g
}

// PoolMark is the tri-state provenance of a notification with respect to
// the burst free pools. The zero value, PoolForeign, marks an ordinary
// heap allocation that no pool will ever reclaim; returning a foreign
// notification to a pool is a counted no-op, never corruption.
type PoolMark uint8

const (
	// PoolForeign marks a plain heap allocation outside any pool.
	PoolForeign PoolMark = iota
	// PoolCheckedOut marks a pooled notification currently owned by
	// exactly one holder, who must Put it back exactly once.
	PoolCheckedOut
	// PoolFree marks a pooled notification at rest in its pool; using or
	// re-Putting one is a lifecycle bug that the pool counts.
	PoolFree
)

// PoolProvenance returns the notification's pool mark.
func (n *Notification) PoolProvenance() PoolMark { return n.poolMark }

// SetPoolProvenance stamps the notification's pool mark. Only the burst
// pools should call this; everything else treats the mark as read-only.
func (n *Notification) SetPoolProvenance(m PoolMark) { n.poolMark = m }

// TraceContext is the compact per-notification tracing context that
// travels with a sampled notification across the stack: a stable trace ID,
// the node that minted it, and one timestamped hop per node traversed.
// It lives in msg (rather than internal/trace) so the notification can
// carry it without an import cycle.
type TraceContext struct {
	// TraceID identifies the trace; by convention it is the notification
	// ID, which the broker guarantees unique at publish time.
	TraceID string `json:"id"`
	// Origin names the node that sampled the notification and minted the
	// context (normally the accepting broker).
	Origin string `json:"origin,omitempty"`
	// Hops records each node the notification traversed, in order.
	Hops []TraceHop `json:"hops,omitempty"`
}

// TraceHop is one node traversal: where and when (unix nanoseconds).
type TraceHop struct {
	Node string `json:"node"`
	At   int64  `json:"at"`
}

// WithHop returns a copy of the context with one hop appended. The
// receiver is never mutated: fan-out clones share the pointer, so each
// delivery branch must extend its own copy.
func (t *TraceContext) WithHop(node string, at time.Time) *TraceContext {
	if t == nil {
		return nil
	}
	c := *t
	c.Hops = make([]TraceHop, len(t.Hops), len(t.Hops)+1)
	copy(c.Hops, t.Hops)
	c.Hops = append(c.Hops, TraceHop{Node: node, At: at.UnixNano()})
	return &c
}

// NeverExpires reports whether the notification has no expiration.
func (n *Notification) NeverExpires() bool { return n.Expires.IsZero() }

// Expired reports whether the notification is stale at the given instant.
func (n *Notification) Expired(now time.Time) bool {
	return !n.Expires.IsZero() && now.After(n.Expires)
}

// RemainingLife returns how long the notification stays relevant after now.
// It returns a negative duration for expired notifications. For
// notifications that never expire it returns maxDuration.
func (n *Notification) RemainingLife(now time.Time) time.Duration {
	if n.Expires.IsZero() {
		return maxDuration
	}
	return n.Expires.Sub(now)
}

const maxDuration = time.Duration(1<<63 - 1)

// Clone returns a deep copy of the notification. The copy is always
// pool-foreign and group-free: cloning a pooled or shared notification
// yields an ordinary heap object with its own lifetime.
func (n *Notification) Clone() *Notification {
	c := *n
	c.poolMark = PoolForeign
	c.share = nil
	if n.Payload != nil {
		c.Payload = make([]byte, len(n.Payload))
		copy(c.Payload, n.Payload)
	}
	return &c
}

// CopyFrom deep-copies src's content into n, reusing n's payload
// capacity and preserving n's own pool provenance. The trace context
// pointer is shared (the pointed-to context is immutable by contract);
// any share group on src stays behind — the copy owns its bytes.
func (n *Notification) CopyFrom(src *Notification) {
	mark := n.poolMark
	payload := append(n.Payload[:0], src.Payload...)
	*n = *src
	n.Payload = payload
	n.poolMark = mark
	n.share = nil
}

// Validate checks structural invariants that the pubsub substrate enforces
// at publish time.
func (n *Notification) Validate() error {
	switch {
	case n.ID == NoID:
		return errors.New("notification has no ID")
	case n.Topic == "":
		return errors.New("notification has no topic")
	case !validRank(n.Rank):
		return fmt.Errorf("rank %v outside [%v, %v]", n.Rank, float64(MinRank), float64(MaxRank))
	case !n.Expires.IsZero() && n.Expires.Before(n.Published):
		return fmt.Errorf("expiration %v precedes publication %v", n.Expires, n.Published)
	default:
		return nil
	}
}

// Before reports whether n should be considered "higher ranked" than other
// for the purposes of selecting the best notifications: primarily by rank
// (descending), breaking ties by publication time (older first, so that
// equally ranked news is read in order), and finally by ID for determinism.
func (n *Notification) Before(other *Notification) bool {
	if n.Rank != other.Rank {
		return n.Rank > other.Rank
	}
	if !n.Published.Equal(other.Published) {
		return n.Published.Before(other.Published)
	}
	return n.ID < other.ID
}

// Compare is Before as a three-way comparison for slices.SortFunc: negative
// when n ranks ahead of other, positive when behind, zero only for the same
// rank, publication instant and ID.
func (n *Notification) Compare(other *Notification) int {
	switch {
	case n.Rank > other.Rank:
		return -1
	case n.Rank < other.Rank:
		return 1
	}
	if c := n.Published.Compare(other.Published); c != 0 {
		return c
	}
	return strings.Compare(string(n.ID), string(other.ID))
}

// validRank reports whether r lies in [MinRank, MaxRank]. NaN does not: it
// fails both comparisons, and Before is no order for a NaN rank.
func validRank(r float64) bool { return r >= MinRank && r <= MaxRank }

// RankUpdate revises the rank of a previously published notification
// (§3.4). A positive change boosts a useful notification; a negative change
// helps retract notifications after they reach mailboxes but before they
// are read.
type RankUpdate struct {
	Topic   string  `json:"topic"`
	ID      ID      `json:"id"`
	NewRank float64 `json:"newRank"`
}

// Validate checks structural invariants of a rank update.
func (u *RankUpdate) Validate() error {
	switch {
	case u.ID == NoID:
		return errors.New("rank update has no ID")
	case u.Topic == "":
		return errors.New("rank update has no topic")
	case !validRank(u.NewRank):
		return fmt.Errorf("rank %v outside [%v, %v]", u.NewRank, float64(MinRank), float64(MaxRank))
	default:
		return nil
	}
}

// Unlimited is the Max value meaning "no quantitative limit".
const Unlimited = 0

// SubscriptionOptions carries the subscriber-side volume-limiting
// thresholds of §2.2 plus the delivery mode the device selected for the
// topic.
type SubscriptionOptions struct {
	// Max is the quantitative limit: deliver at most this many
	// highest-ranked notifications at a time. Unlimited (zero) disables
	// the limit.
	Max int `json:"max"`
	// Threshold is the qualitative limit: only notifications with a rank
	// at or above it are acceptable.
	Threshold float64 `json:"threshold"`
	// Mode selects on-line or on-demand delivery. Defaults to OnDemand
	// when unset, which the paper expects to be the majority.
	Mode DeliveryMode `json:"mode"`
}

// EffectiveMode returns the delivery mode, defaulting to OnDemand.
func (o SubscriptionOptions) EffectiveMode() DeliveryMode {
	if o.Mode == OnLine {
		return OnLine
	}
	return OnDemand
}

// Accepts reports whether a notification passes the qualitative limit.
func (o SubscriptionOptions) Accepts(n *Notification) bool {
	return n.Rank >= o.Threshold
}

// Validate checks the option invariants.
func (o SubscriptionOptions) Validate() error {
	switch {
	case o.Max < 0:
		return fmt.Errorf("negative Max %d", o.Max)
	case o.Threshold < MinRank || o.Threshold > MaxRank:
		return fmt.Errorf("threshold %v outside [%v, %v]", o.Threshold, float64(MinRank), float64(MaxRank))
	case o.Mode != 0 && o.Mode != OnLine && o.Mode != OnDemand:
		return fmt.Errorf("invalid delivery mode %d", int(o.Mode))
	default:
		return nil
	}
}

// Subscription ties a subscriber to a topic with its volume-limiting
// options.
type Subscription struct {
	Topic      string              `json:"topic"`
	Subscriber string              `json:"subscriber"`
	Options    SubscriptionOptions `json:"options"`
}

// Validate checks the subscription invariants.
func (s *Subscription) Validate() error {
	if s.Topic == "" {
		return errors.New("subscription has no topic")
	}
	if s.Subscriber == "" {
		return errors.New("subscription has no subscriber")
	}
	return s.Options.Validate()
}

// ReadRequest is what the client device sends to the proxy when the user
// checks messages (§3.5): a read is not a request for more data but a
// request for better data if it exists.
type ReadRequest struct {
	Topic string `json:"topic"`
	// N is the number of items the user wants to read; zero means
	// unlimited (the paper's Max = ∞).
	N int `json:"n"`
	// QueueSize is the number of messages currently queued on the client
	// device, including the N it is requesting.
	QueueSize int `json:"queueSize"`
	// ClientEvents identifies between 0 and N of the highest-ranked
	// events already on the client device; with effective prefetching
	// this set may be better than anything available on the proxy, making
	// any transfer unnecessary.
	ClientEvents []ID `json:"clientEvents,omitempty"`
	// Peek marks a cache-refill request rather than a user read: the
	// proxy transfers better data but does not treat the request as
	// consumption (no read statistics, no queue-view subtraction). An
	// extension beyond the paper, used by cooperating sibling devices.
	Peek bool `json:"peek,omitempty"`
}

// Validate checks the read-request invariants.
func (r *ReadRequest) Validate() error {
	switch {
	case r.Topic == "":
		return errors.New("read request has no topic")
	case r.N < 0:
		return fmt.Errorf("negative N %d", r.N)
	case r.QueueSize < 0:
		return fmt.Errorf("negative queue size %d", r.QueueSize)
	case r.N > 0 && len(r.ClientEvents) > r.N:
		return fmt.Errorf("%d client events exceed N=%d", len(r.ClientEvents), r.N)
	default:
		return nil
	}
}

// IDSet is a set of notification IDs with set-algebra helpers used by the
// proxy algorithm's queue manipulation and by the waste/loss accounting.
type IDSet map[ID]struct{}

// NewIDSet builds a set from the given IDs.
func NewIDSet(ids ...ID) IDSet {
	s := make(IDSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id and reports whether it was absent.
func (s IDSet) Add(id ID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// Remove deletes id and reports whether it was present.
func (s IDSet) Remove(id ID) bool {
	if _, ok := s[id]; !ok {
		return false
	}
	delete(s, id)
	return true
}

// Contains reports membership.
func (s IDSet) Contains(id ID) bool {
	_, ok := s[id]
	return ok
}

// Len returns the cardinality of the set.
func (s IDSet) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s IDSet) Clone() IDSet {
	c := make(IDSet, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}

// Union returns a new set containing members of either set.
func (s IDSet) Union(other IDSet) IDSet {
	u := make(IDSet, len(s)+len(other))
	for id := range s {
		u[id] = struct{}{}
	}
	for id := range other {
		u[id] = struct{}{}
	}
	return u
}

// Diff returns a new set with members of s that are not in other.
func (s IDSet) Diff(other IDSet) IDSet {
	d := make(IDSet)
	for id := range s {
		if _, ok := other[id]; !ok {
			d[id] = struct{}{}
		}
	}
	return d
}

// Intersect returns a new set with members present in both sets.
func (s IDSet) Intersect(other IDSet) IDSet {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	i := make(IDSet)
	for id := range small {
		if _, ok := large[id]; ok {
			i[id] = struct{}{}
		}
	}
	return i
}
