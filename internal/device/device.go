// Package device models the mobile device at the end of the last hop
// (paper §2.3): a bounded notification store with low-rank eviction under
// storage pressure, a battery budget that every transfer draws from, and
// the client side of the READ protocol (§3.5) — a read offers the proxy the
// device's best local events so only better data is transferred.
package device

import (
	"errors"
	"fmt"

	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// ErrBatteryDead is returned once the battery budget is exhausted; a dead
// device can neither receive nor read.
var ErrBatteryDead = errors.New("device battery exhausted")

// ReadBackend relays a read request to the proxy. In simulation it is the
// proxy itself; in deployment it is the wire client. Read must not keep
// req.ClientEvents after it returns: the device reuses that buffer for its
// next request.
type ReadBackend interface {
	Read(req msg.ReadRequest) error
}

// Config parameterizes a device.
type Config struct {
	// Capacity bounds the number of stored notifications; zero means
	// unbounded. When full, the lowest-ranked unread notification is
	// evicted — such evictions mean the message was forwarded in vain
	// (§2.3).
	Capacity int
	// BatteryCapacity is the energy budget in abstract units; zero means
	// unbounded. Every received message and every upstream request draws
	// from it.
	BatteryCapacity float64
	// ReceiveCost is the energy drawn per received message; zero
	// defaults to 1.
	ReceiveCost float64
	// RequestCost is the energy drawn per upstream read request; zero
	// defaults to 0.5.
	RequestCost float64
	// RankThreshold mirrors the subscription's qualitative limit: the
	// user does not read notifications ranked below it.
	RankThreshold float64
}

func (c Config) withDefaults() Config {
	if c.ReceiveCost == 0 {
		c.ReceiveCost = 1
	}
	if c.RequestCost == 0 {
		c.RequestCost = 0.5
	}
	return c
}

// Stats is the device's cumulative accounting.
type Stats struct {
	// Received counts distinct notifications accepted from the link.
	Received int
	// Updates counts re-forwards that only revised a known
	// notification's rank.
	Updates int
	// RankDropsApplied counts notifications discarded after a rank-drop
	// signal.
	RankDropsApplied int
	// ReadCount counts notifications the user consumed.
	ReadCount int
	// EvictedStorage counts unread notifications dropped under storage
	// pressure.
	EvictedStorage int
	// ExpiredUnread counts notifications that expired on the device
	// before the user saw them.
	ExpiredUnread int
	// RequestsSent counts upstream read requests.
	RequestsSent int
	// BatteryUsed is the consumed energy.
	BatteryUsed float64
	// PeerImports counts notifications borrowed from sibling devices
	// over the ad-hoc network.
	PeerImports int
	// PeerReleases counts local unread copies dropped because a sibling
	// device's user already read them.
	PeerReleases int
}

// Device is the mobile client: a Store behind a link, a battery and the
// proxy it reads from. Like the proxy it is single-threaded: callers
// serialize through the owning scheduler.
type Device struct {
	sched   simtime.Scheduler
	lnk     *link.Link
	backend ReadBackend
	cfg     Config

	store *Store   // its Stats is the device's: link and battery are counted there too
	offer []msg.ID // the ClientEvents of every request it relays, reused
}

// New returns a device reading through the given link and backend.
func New(sched simtime.Scheduler, lnk *link.Link, backend ReadBackend, cfg Config) *Device {
	return &Device{
		sched:   sched,
		lnk:     lnk,
		backend: backend,
		cfg:     cfg.withDefaults(),
		store:   NewStore(cfg.Capacity, cfg.RankThreshold),
	}
}

// Stats returns a copy of the cumulative accounting.
func (d *Device) Stats() Stats { return d.store.Stats }

// BatteryRemaining returns the remaining energy budget; ok is false when
// the budget is unbounded.
func (d *Device) BatteryRemaining() (float64, bool) {
	if d.cfg.BatteryCapacity == 0 {
		return 0, false
	}
	rem := d.cfg.BatteryCapacity - d.store.Stats.BatteryUsed
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

func (d *Device) batteryDead() bool {
	return d.cfg.BatteryCapacity > 0 && d.store.Stats.BatteryUsed >= d.cfg.BatteryCapacity
}

func (d *Device) drain(cost float64) error {
	if d.batteryDead() {
		return ErrBatteryDead
	}
	d.store.Stats.BatteryUsed += cost
	return nil
}

// QueueLen returns the number of stored notifications on a topic.
func (d *Device) QueueLen(topic string) int { return d.store.QueueLen(topic) }

// ReadSet returns a copy of the IDs the user has consumed on a topic.
func (d *Device) ReadSet(topic string) msg.IDSet { return d.store.ReadSet(topic) }

// Receive takes one notification (or a rank revision under a known ID)
// across the link, once per transfer (core.ForwardEach). Unacceptable
// content still costs the transfer; it simply never becomes readable.
func (d *Device) Receive(n *msg.Notification) error {
	if err := d.drain(d.cfg.ReceiveCost); err != nil {
		return err
	}
	if err := d.lnk.Transfer(link.ProxyToDevice, transferSize(n)); err != nil {
		return fmt.Errorf("receive: %w", err)
	}
	d.store.Accept(n, d.sched.Now())
	return nil
}

// Read performs a user read on a topic: at most n highest-ranked unexpired
// notifications are returned and consumed (n == 0 means everything, the
// paper's Max = ∞). When the link is up, the device first offers the proxy
// its best local IDs so the proxy transfers only better data (§3.5); when
// the link is down, the read is served purely from the local queue. The
// batch is a fresh slice the caller owns.
func (d *Device) Read(topic string, n int) ([]*msg.Notification, error) {
	return d.AppendRead(nil, topic, n)
}

// AppendRead is Read appending the batch to dst, so a caller that reuses
// one buffer for its reads allocates nothing per read. On error dst comes
// back unchanged.
func (d *Device) AppendRead(dst []*msg.Notification, topic string, n int) ([]*msg.Notification, error) {
	if d.batteryDead() {
		return dst, ErrBatteryDead
	}
	d.store.Expire(topic, d.sched.Now(), nil)

	// The read is always relayed to the proxy's READ handler — Figure 7's
	// READ does not check network status; only try_forwarding does. When
	// the link is down the request rides along at reconnection (modeled
	// as free), the proxy updates its view of the client queue, and any
	// "better data" it selects waits in the outgoing queue until the
	// link returns. When the link is up the request costs one upstream
	// transfer and the response arrives before the read completes.
	req := d.offerReq(topic, n)
	relay := true
	if d.lnk.Up() {
		if err := d.drain(d.cfg.RequestCost); err != nil {
			relay = false
		} else if err := d.lnk.Transfer(link.DeviceToProxy, requestSize(&req)); err != nil {
			relay = false
		} else {
			d.store.Stats.RequestsSent++
		}
	}
	if relay {
		// The proxy forwards the difference synchronously through
		// Receive before Read returns (when the link allows).
		if err := d.backend.Read(req); err != nil {
			return dst, fmt.Errorf("read relay: %w", err)
		}
	}
	return d.store.Take(dst, topic, n), nil
}

// offerReq builds a read request whose ClientEvents is the device's reused
// offer buffer.
func (d *Device) offerReq(topic string, n int) msg.ReadRequest {
	req := d.store.Offer(d.offer[:0], topic, n)
	d.offer = req.ClientEvents
	return req
}

// Peek returns copies of the up-to-n highest-ranked unexpired unread
// notifications without consuming them. Peer devices use it to offer their
// cache over an ad-hoc network (§4 future work).
func (d *Device) Peek(topic string, n int) []*msg.Notification {
	d.store.Expire(topic, d.sched.Now(), nil)
	return d.store.Peek(topic, n)
}

// ImportPeer stores a notification borrowed from a peer device's cache
// over the ad-hoc network. It bypasses the last hop (no link transfer, no
// battery charge for the cellular radio) and reports whether the
// notification was new here.
func (d *Device) ImportPeer(n *msg.Notification) bool { return d.store.Import(n, d.sched.Now()) }

// MarkRead records that the user consumed the given notifications on a
// sibling device: local unread copies are dropped (they would otherwise
// become waste) and the IDs join the consumed set so re-forwards are
// ignored. It returns how many local copies were released.
func (d *Device) MarkRead(topic string, ids []msg.ID) int { return d.store.MarkConsumed(topic, ids) }

// Refill asks the proxy to top the local cache up by `slots` messages
// without counting as a user read (a Peek request). Sibling-device
// cooperation calls it after gossip releases local copies, so the proxy's
// view of the queue stays accurate and prefetching does not stall. It is a
// no-op while the link is down.
func (d *Device) Refill(topic string, slots int) error {
	if slots <= 0 || !d.lnk.Up() {
		return nil
	}
	if d.batteryDead() {
		return ErrBatteryDead
	}
	d.store.Expire(topic, d.sched.Now(), nil)
	req := d.offerReq(topic, 0)
	req.N = req.QueueSize + slots
	req.Peek = true
	if err := d.drain(d.cfg.RequestCost); err != nil {
		return err
	}
	if err := d.lnk.Transfer(link.DeviceToProxy, requestSize(&req)); err != nil {
		return fmt.Errorf("refill: %w", err)
	}
	d.store.Stats.RequestsSent++
	if err := d.backend.Read(req); err != nil {
		return fmt.Errorf("refill relay: %w", err)
	}
	return nil
}

// transferSize approximates a notification's size on the wire.
func transferSize(n *msg.Notification) int {
	return 64 + len(n.Payload)
}

// requestSize approximates a read request's size on the wire.
func requestSize(r *msg.ReadRequest) int {
	return 32 + 8*len(r.ClientEvents)
}
