// Package core implements the paper's primary contribution: the last-hop
// proxy with volume-limiting and unified prefetching (paper §3, Figure 7).
//
// The proxy sits between the pub/sub routing substrate and a mobile
// device. Per topic it maintains three queues — outgoing (must be
// forwarded as soon as possible), prefetch (eligible for opportunistic
// forwarding), and holding (expires too soon to be worth prefetching) — and
// reacts to three inputs: notification arrivals, user reads relayed by the
// device, and network status changes on the last hop.
//
// The proxy is deployment-agnostic: it depends only on simtime.Scheduler
// for time and on a BatchForwarder for pushing messages to the device, so the
// identical algorithm runs inside the discrete-event simulator and behind
// the TCP wire server.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"lasthop/internal/msg"
)

// PolicyKind selects the forwarding policy for an on-demand topic (§3.1).
type PolicyKind int

const (
	// Online forwards every acceptable notification as soon as the
	// network allows. No losses by definition; waste is maximal.
	Online PolicyKind = iota + 1
	// OnDemand holds every notification on the proxy until the user
	// requests it. No waste by definition; losses grow with outages.
	OnDemand
	// Buffer prefetches highest-ranked notifications until the proxy's
	// view of the device queue reaches the prefetch limit (§3.2).
	Buffer
	// Rate forwards notifications at the estimated ratio between the
	// user's read rate and the event arrival rate (§3.2's rate-based
	// alternative, which the paper found inferior to Buffer).
	Rate
)

// String names the policy for configuration and reports.
func (k PolicyKind) String() string {
	switch k {
	case Online:
		return "online"
	case OnDemand:
		return "on-demand"
	case Buffer:
		return "buffer"
	case Rate:
		return "rate"
	default:
		return "policy(" + strconv.Itoa(int(k)) + ")"
	}
}

// Defaults used when a TopicConfig leaves tunables at zero.
const (
	// DefaultStatsWindow is the moving-average window for read sizes,
	// read intervals, and expiration lifetimes.
	DefaultStatsWindow = 16
	// DefaultHistoryLimit bounds the per-topic event history; the paper
	// notes history grows without bound and omits garbage collection,
	// which this limit supplies.
	DefaultHistoryLimit = 1 << 17
	// DefaultPrefetchLimit is used before any read has been observed
	// when no explicit limit is configured.
	DefaultPrefetchLimit = 16
	// PrefetchLimitFactor scales the moving average of read sizes into
	// the auto prefetch limit ("it is safe to set the prefetch limit to
	// twice that amount", §3.2).
	PrefetchLimitFactor = 2
)

// TopicConfig configures one subscribed topic on the proxy.
type TopicConfig struct {
	// Name is the topic name.
	Name string
	// Mode selects on-line or on-demand delivery (§2.2). On-line topics
	// ignore Policy: every acceptable notification goes out as soon as
	// the connection allows.
	Mode msg.DeliveryMode
	// Policy is the forwarding policy for on-demand topics; zero
	// defaults to Buffer.
	Policy PolicyKind
	// RankThreshold is the subscriber's qualitative limit: notifications
	// ranked below it are not acceptable (§2.2).
	RankThreshold float64
	// ReadSize is the subscriber's Max: how many highest-ranked
	// notifications a read returns at most. Zero means unlimited.
	ReadSize int
	// PrefetchLimit is the fixed prefetch limit for the Buffer policy.
	// With AutoPrefetchLimit it serves as the initial value before the
	// first read is observed.
	PrefetchLimit int
	// AutoPrefetchLimit recomputes the prefetch limit on every read as
	// PrefetchLimitFactor times the moving average of read sizes.
	AutoPrefetchLimit bool
	// ExpirationThreshold is the fixed cut-off below which notifications
	// are held back from prefetching: a notification whose remaining
	// life is shorter goes to the holding queue (§3.3). Zero disables
	// the holding stage (unless AutoExpirationThreshold is set).
	ExpirationThreshold time.Duration
	// AutoExpirationThreshold recomputes the threshold on every read as
	// the moving average of intervals between reads, per Figure 7.
	AutoExpirationThreshold bool
	// Delay holds fresh notifications in a delay stage before they
	// become prefetchable, giving rank retractions time to land (§3.4).
	// Zero disables the stage.
	Delay time.Duration
	// AutoDelay recomputes the delay from the observed lag between
	// publication and rank retraction on this topic. The paper leaves
	// the delay formula open; this implementation uses 1.5 times the
	// moving average of observed retraction lags.
	AutoDelay bool
	// HistoryLimit bounds the per-topic history; zero defaults to
	// DefaultHistoryLimit, negative means unbounded.
	HistoryLimit int
	// StatsWindow is the moving-average window size; zero defaults to
	// DefaultStatsWindow.
	StatsWindow int

	// The §2.2 hybrid-delivery refinements:

	// InterruptRank lets an on-demand topic interrupt: notifications
	// ranked at or above it are pushed immediately, like on-line traffic
	// ("a tornado warning on a weather topic"). Zero disables it.
	InterruptRank float64
	// Quiet silences an on-line topic during daily windows ("during a
	// meeting"); arrivals inside a window are delivered when it ends.
	Quiet []QuietWindow
	// DailyOnlineCap bounds how many notifications an on-line topic may
	// push per day; the overflow falls back to the on-demand staging
	// path. Zero means no cap.
	DailyOnlineCap int
}

// QuietWindow is a daily local-time window (offsets from midnight, in the
// notification timestamps' location) during which an on-line topic goes
// quiet. A window with Start > End wraps around midnight: {22h, 7h} is
// quiet from 22:00 through 07:00 the next morning.
type QuietWindow struct {
	// Start and End are offsets from midnight, both within [0, 24h] and
	// distinct. Start < End is a same-day window [Start, End); Start >
	// End wraps around midnight ([Start, 24h) ∪ [0, End)).
	Start, End time.Duration
}

// wraps reports whether the window crosses midnight.
func (w QuietWindow) wraps() bool { return w.Start > w.End }

// Validate checks the window invariants.
func (w QuietWindow) Validate() error {
	if w.Start < 0 || w.Start >= 24*time.Hour || w.End < 0 || w.End > 24*time.Hour || w.Start == w.End {
		return fmt.Errorf("invalid quiet window [%v, %v)", w.Start, w.End)
	}
	return nil
}

// contains reports whether the instant falls inside the daily window, and
// the time remaining until the window ends.
func (w QuietWindow) contains(t time.Time) (bool, time.Duration) {
	midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	off := t.Sub(midnight)
	if w.wraps() {
		switch {
		case off >= w.Start:
			// Evening leg: quiet until End tomorrow.
			return true, 24*time.Hour - off + w.End
		case off < w.End:
			// Morning leg.
			return true, w.End - off
		}
		return false, 0
	}
	if off >= w.Start && off < w.End {
		return true, w.End - off
	}
	return false, 0
}

// Validate checks the configuration invariants.
func (c TopicConfig) Validate() error {
	switch {
	case c.Name == "":
		return errors.New("topic config has no name")
	case c.Policy != 0 && (c.Policy < Online || c.Policy > Rate):
		return fmt.Errorf("invalid policy %d", int(c.Policy))
	case c.Mode != 0 && c.Mode != msg.OnLine && c.Mode != msg.OnDemand:
		return fmt.Errorf("invalid delivery mode %d", int(c.Mode))
	case c.RankThreshold < msg.MinRank || c.RankThreshold > msg.MaxRank:
		return fmt.Errorf("rank threshold %v outside [%v, %v]", c.RankThreshold, float64(msg.MinRank), float64(msg.MaxRank))
	case c.ReadSize < 0:
		return fmt.Errorf("negative read size %d", c.ReadSize)
	case c.PrefetchLimit < 0:
		return fmt.Errorf("negative prefetch limit %d", c.PrefetchLimit)
	case c.ExpirationThreshold < 0:
		return fmt.Errorf("negative expiration threshold %v", c.ExpirationThreshold)
	case c.Delay < 0:
		return fmt.Errorf("negative delay %v", c.Delay)
	case c.StatsWindow < 0:
		return fmt.Errorf("negative stats window %d", c.StatsWindow)
	case c.InterruptRank < 0 || c.InterruptRank > msg.MaxRank:
		return fmt.Errorf("interrupt rank %v outside [0, %v]", c.InterruptRank, float64(msg.MaxRank))
	case c.DailyOnlineCap < 0:
		return fmt.Errorf("negative daily on-line cap %d", c.DailyOnlineCap)
	}
	for _, w := range c.Quiet {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (c TopicConfig) withDefaults() TopicConfig {
	if c.Mode == 0 {
		c.Mode = msg.OnDemand
	}
	if c.Policy == 0 {
		c.Policy = Buffer
	}
	if c.StatsWindow == 0 {
		c.StatsWindow = DefaultStatsWindow
	}
	if c.HistoryLimit == 0 {
		c.HistoryLimit = DefaultHistoryLimit
	}
	if c.HistoryLimit < 0 {
		c.HistoryLimit = 0 // unbounded for rankedq.History
	}
	return c
}

// OnlineConfig is the on-line forwarding baseline for a topic: everything
// acceptable is pushed as soon as the network allows.
func OnlineConfig(name string) TopicConfig {
	return TopicConfig{Name: name, Policy: Online}
}

// OnDemandConfig is the pure on-demand policy: nothing is prefetched.
func OnDemandConfig(name string, readSize int) TopicConfig {
	return TopicConfig{Name: name, Policy: OnDemand, ReadSize: readSize}
}

// BufferConfig is buffer-based prefetching with a fixed limit (§3.2).
func BufferConfig(name string, readSize, limit int) TopicConfig {
	return TopicConfig{Name: name, Policy: Buffer, ReadSize: readSize, PrefetchLimit: limit}
}

// RateConfig is rate-based prefetching (§3.2).
func RateConfig(name string, readSize int) TopicConfig {
	return TopicConfig{Name: name, Policy: Rate, ReadSize: readSize}
}

// UnifiedConfig is the paper's full Figure 7 configuration: buffer-based
// prefetching with the limit auto-tuned to twice the average read size and
// the expiration threshold auto-tuned to the average interval between
// reads.
func UnifiedConfig(name string, readSize int) TopicConfig {
	return TopicConfig{
		Name:                    name,
		Policy:                  Buffer,
		ReadSize:                readSize,
		AutoPrefetchLimit:       true,
		AutoExpirationThreshold: true,
	}
}
