package core

import (
	"fmt"
	"slices"
	"sort"

	"lasthop/internal/msg"
	"lasthop/internal/stats"
)

// TopicDurable pairs a topic's configuration with its durable runtime
// state. The configuration rides along so a recovered host can re-register
// the topic without consulting any other source.
type TopicDurable struct {
	Config TopicConfig    `json:"config"`
	State  msg.TopicState `json:"state"`
}

// ProxySnapshot is the complete durable state of one proxy: cumulative
// accounting plus every subscribed topic. Export produces it; Import
// rebuilds an empty proxy from it. Round-tripping through JSON is lossless
// up to timer identity — timers are re-armed from their recorded deadlines.
type ProxySnapshot struct {
	Stats  Stats          `json:"stats"`
	Topics []TopicDurable `json:"topics,omitempty"`
}

// Export captures the proxy's durable state. Like every entry point it must
// run on the owning scheduler. The snapshot shares Notification pointers
// with the live proxy; serialize it before mutating the proxy further.
func (p *Proxy) Export() *ProxySnapshot {
	snap := &ProxySnapshot{Stats: p.stats}
	for _, name := range p.Topics() {
		ts := p.topics[name]
		st := msg.TopicState{
			Topic:         name,
			Outgoing:      ts.queues[inOutgoing].IDs(),
			Prefetch:      ts.queues[inPrefetch].IDs(),
			Holding:       ts.queues[inHolding].IDs(),
			History:       make([]msg.ID, 0, len(ts.slots)),
			QueueSize:     ts.queueSize,
			PrefetchLimit: ts.prefetchLimit,
			ExpThreshold:  ts.expThreshold,
			Delay:         ts.delay,
			ReadSizes:     exportWindow(ts.readSizes),
			ExpTimes:      exportWindow(ts.expTimes),
			DropLags:      exportWindow(ts.dropLags),
			ReadTimes:     exportInterval(ts.readTimes),
			ArrivalTimes:  exportInterval(ts.arrivalTimes),
			RateTokens:    ts.rateTokens,
			OnlineDay:     ts.onlineDay,
			OnlineSent:    ts.onlineSent,
		}
		for h, t := range ts.delays {
			st.Delayed = append(st.Delayed, msg.DelayedEntry{ID: ts.slots[h].N.ID, FireAt: t.fireAt, Quiet: t.quiet})
		}
		sort.Slice(st.Delayed, func(i, j int) bool { return st.Delayed[i].ID < st.Delayed[j].ID })
		// History order, oldest first from the ring's head, carries the
		// content list so Import can replay remember() calls and
		// reproduce the same eviction order.
		for i := range ts.slots {
			h := (int(ts.head) + i) % len(ts.slots)
			n := ts.slots[h].N
			st.History = append(st.History, n.ID)
			st.Notifications = append(st.Notifications, n)
			if n.Trace != nil {
				if st.Traces == nil {
					st.Traces = make(map[msg.ID]*msg.TraceContext)
				}
				st.Traces[n.ID] = n.Trace
			}
			if ts.ents[h].fwd {
				st.Forwarded = append(st.Forwarded, n.ID)
			}
		}
		slices.Sort(st.Forwarded)
		st.ExpiryArmed = ts.expiry.IDs()
		slices.Sort(st.ExpiryArmed)
		snap.Topics = append(snap.Topics, TopicDurable{Config: ts.cfg, State: st})
	}
	return snap
}

func exportWindow(m *stats.MovingAverage) msg.WindowSnapshot {
	return msg.WindowSnapshot{Size: m.Size(), Samples: m.Samples()}
}

func exportInterval(ia *stats.IntervalAverage) msg.IntervalSnapshot {
	size, diffs, last, hasLast := ia.Export()
	return msg.IntervalSnapshot{
		Window:  msg.WindowSnapshot{Size: size, Samples: diffs},
		Last:    last,
		HasLast: hasLast,
	}
}

// Import rebuilds the proxy from a snapshot. The proxy must be freshly
// constructed (no topics registered); the caller decides the network state
// — a rehydrating host imports with the network marked down and raises it
// only once the device connection is attached. Timers re-arm from their
// recorded deadlines: deadlines that passed while the state was spooled
// fire on the next scheduler tick, so nothing is lost to the gap.
func (p *Proxy) Import(snap *ProxySnapshot) error {
	if len(p.topics) != 0 {
		return fmt.Errorf("import: proxy already has %d topics", len(p.topics))
	}
	p.stats = snap.Stats
	now := p.sched.Now()
	for _, td := range snap.Topics {
		if err := p.AddTopic(td.Config); err != nil {
			return fmt.Errorf("import: %w", err)
		}
		ts := p.topics[td.Config.Name]
		st := &td.State

		byID := make(map[msg.ID]*msg.Notification, len(st.Notifications))
		for _, n := range st.Notifications {
			if tc, ok := st.Traces[n.ID]; ok {
				n.Trace = tc
			}
			byID[n.ID] = n
		}
		// Replay the history in insertion order so the GC evicts in the
		// same order the live proxy would have.
		for _, id := range st.History {
			n, ok := byID[id]
			if !ok {
				return fmt.Errorf("import: topic %q history ID %s has no content", st.Topic, id)
			}
			if _, dup := ts.ids[id]; dup {
				return fmt.Errorf("import: topic %q history ID %s listed twice", st.Topic, id)
			}
			p.remember(ts, n)
		}
		// Every other list names remembered IDs, and no ID waits in two
		// stages.
		lookup := func(what string, id msg.ID, staging bool) (int32, error) {
			h, ok := ts.ids[id]
			switch {
			case !ok:
				return h, fmt.Errorf("import: topic %q %s ID %s not in history", st.Topic, what, id)
			case staging && ts.ents[h].at != nowhere:
				return h, fmt.Errorf("import: topic %q %s ID %s already %s", st.Topic, what, id, stageNames[ts.ents[h].at])
			}
			return h, nil
		}
		for _, id := range st.Forwarded {
			h, err := lookup("forwarded", id, false)
			if err != nil {
				return err
			}
			ts.setForwarded(h, true)
		}
		for _, q := range []struct {
			ids []msg.ID
			at  stage
		}{{st.Outgoing, inOutgoing}, {st.Prefetch, inPrefetch}, {st.Holding, inHolding}} {
			what := stageNames[q.at] + " queue"
			for _, id := range q.ids {
				h, err := lookup(what, id, true)
				if err != nil {
					return err
				}
				ts.push(h, q.at)
			}
		}
		for _, e := range st.Delayed {
			h, err := lookup("delayed", e.ID, true)
			if err != nil {
				return err
			}
			p.delay(ts, h, e.FireAt.Sub(now), e.FireAt, e.Quiet) // Schedule clamps negatives to zero
		}
		for _, id := range st.ExpiryArmed {
			h, err := lookup("expiry", id, false)
			if err != nil {
				return err
			}
			if !ts.ents[h].armed && !ts.slots[h].N.NeverExpires() {
				ts.ents[h].armed = true
				ts.expiry.Push(h)
			}
		}
		p.armExpiry(ts)

		ts.queueSize = st.QueueSize
		ts.prefetchLimit = st.PrefetchLimit
		ts.expThreshold = st.ExpThreshold
		ts.delay = st.Delay
		ts.readSizes = restoreWindow(st.ReadSizes, ts.cfg.StatsWindow)
		ts.expTimes = restoreWindow(st.ExpTimes, ts.cfg.StatsWindow)
		ts.dropLags = restoreWindow(st.DropLags, ts.cfg.StatsWindow)
		ts.readTimes = restoreInterval(st.ReadTimes, ts.cfg.StatsWindow)
		ts.arrivalTimes = restoreInterval(st.ArrivalTimes, ts.cfg.StatsWindow)
		ts.rateTokens = st.RateTokens
		ts.onlineDay = st.OnlineDay
		ts.onlineSent = st.OnlineSent
	}
	return nil
}

func restoreWindow(ws msg.WindowSnapshot, fallbackSize int) *stats.MovingAverage {
	size := ws.Size
	if size <= 0 {
		size = fallbackSize
	}
	return stats.RestoreMovingAverage(size, ws.Samples)
}

func restoreInterval(is msg.IntervalSnapshot, fallbackSize int) *stats.IntervalAverage {
	size := is.Window.Size
	if size <= 0 {
		size = fallbackSize
	}
	return stats.RestoreIntervalAverage(size, is.Window.Samples, is.Last, is.HasLast)
}

// Shutdown cancels every armed timer and releases every remembered
// notification, so a proxy being dropped (hibernated or replaced) leaks
// neither scheduler state nor pooled objects. The proxy must not be used
// afterwards. Like every entry point it must run on the owning scheduler
// (or after the scheduler has fully quiesced).
func (p *Proxy) Shutdown() {
	for _, ts := range p.topics {
		p.drop(ts)
	}
	p.topics = make(map[string]*topicState)
}
