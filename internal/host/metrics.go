package host

import (
	"strconv"

	"lasthop/internal/core"
	"lasthop/internal/obs"
)

// RegisterMetrics exports the host's sharding and multiplexing state on
// reg: per-worker session and timer-wheel gauges, the multiplexed
// subscription table, and per-session core counters. The host label
// distinguishes multiple hosts sharing one registry. Call once per
// (registry, host) pair.
func (h *Host) RegisterMetrics(reg *obs.Registry, host string) {
	reg.SampleGauges("lasthop_host_sessions",
		"Device sessions the host currently retains (connected or spooling).",
		[]string{"host"}, func() []obs.Sample {
			h.mu.Lock()
			n := len(h.sessions)
			h.mu.Unlock()
			return []obs.Sample{{Labels: []string{host}, Value: float64(n)}}
		})

	reg.SampleGauges("lasthop_host_worker_sessions",
		"Sessions sharded onto each event-loop worker.",
		[]string{"host", "worker"}, func() []obs.Sample {
			perWorker := make([]int, len(h.workers))
			h.mu.Lock()
			for _, s := range h.sessions {
				perWorker[s.w.id]++
			}
			h.mu.Unlock()
			out := make([]obs.Sample, len(perWorker))
			for i, n := range perWorker {
				out[i] = obs.Sample{Labels: []string{host, strconv.Itoa(i)}, Value: float64(n)}
			}
			return out
		})

	reg.SampleGauges("lasthop_host_worker_timers",
		"Armed timing-wheel timers per worker (delays, expirations, quiet windows across its sessions).",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, len(h.workers))
			for i, w := range h.workers {
				out[i] = obs.Sample{Labels: []string{host, strconv.Itoa(i)}, Value: float64(w.wheel.Pending())}
			}
			return out
		})

	reg.SampleGauges("lasthop_host_upstream_subscriptions",
		"Distinct topics the host holds one multiplexed broker subscription each for.",
		[]string{"host"}, func() []obs.Sample {
			h.mu.Lock()
			n := len(h.topics)
			h.mu.Unlock()
			return []obs.Sample{{Labels: []string{host}, Value: float64(n)}}
		})

	reg.SampleGauges("lasthop_host_topic_refs",
		"Sessions sharing each multiplexed upstream subscription.",
		[]string{"host", "topic"}, func() []obs.Sample {
			h.mu.Lock()
			out := make([]obs.Sample, 0, len(h.topics))
			for t, ts := range h.topics {
				out = append(out, obs.Sample{Labels: []string{host, t}, Value: float64(len(ts.sessions))})
			}
			h.mu.Unlock()
			return out
		})

	reg.SampleGauges("lasthop_host_session_connected",
		"Whether each device session currently has a live connection.",
		[]string{"host", "device"}, func() []obs.Sample {
			infos := h.Sessions()
			out := make([]obs.Sample, 0, len(infos))
			for _, s := range infos {
				v := 0.0
				if s.Connected {
					v = 1.0
				}
				out = append(out, obs.Sample{Labels: []string{host, s.Name}, Value: v})
			}
			return out
		})

	// Per-session core counters, collected with one wheel round trip per
	// worker rather than one per session.
	sessionCounter := func(name, help string, get func(core.Stats) int) {
		reg.SampleCounters(name, help, []string{"host", "device"}, func() []obs.Sample {
			names, stats := h.allSessionStats()
			out := make([]obs.Sample, len(names))
			for i := range names {
				out[i] = obs.Sample{Labels: []string{host, names[i]}, Value: float64(get(stats[i]))}
			}
			return out
		})
	}
	sessionCounter("lasthop_host_session_notifications_total",
		"Notification arrivals into each session's proxy.",
		func(st core.Stats) int { return st.Notifications })
	sessionCounter("lasthop_host_session_forwards_total",
		"Messages each session pushed to its device, including rank-drop signals.",
		func(st core.Stats) int { return st.Forwards })
	sessionCounter("lasthop_host_session_expirations_total",
		"Notifications expired while queued in each session's proxy.",
		func(st core.Stats) int { return st.Expirations })

	// Hibernation lifecycle: the resident/hibernated split, the spool
	// footprint, and the transition totals.
	reg.SampleGauges("lasthop_host_sessions_by_state",
		"Sessions fully in memory (resident) versus serialized to the spool (hibernated).",
		[]string{"host", "state"}, func() []obs.Sample {
			ls := h.Lifecycle()
			return []obs.Sample{
				{Labels: []string{host, "resident"}, Value: float64(ls.Resident)},
				{Labels: []string{host, "hibernated"}, Value: float64(ls.Hibernated)},
			}
		})
	reg.SampleGauges("lasthop_host_spool_bytes",
		"On-disk size of each worker's write-ahead spool.",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.workers))
			for i, w := range h.workers {
				if w.spool == nil {
					continue
				}
				out = append(out, obs.Sample{
					Labels: []string{host, strconv.Itoa(i)},
					Value:  float64(w.spool.Stats().Bytes),
				})
			}
			return out
		})
	reg.SampleGauges("lasthop_host_spool_segments",
		"Segment files in each worker's write-ahead spool.",
		[]string{"host", "worker"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.workers))
			for i, w := range h.workers {
				if w.spool == nil {
					continue
				}
				out = append(out, obs.Sample{
					Labels: []string{host, strconv.Itoa(i)},
					Value:  float64(w.spool.Stats().Segments),
				})
			}
			return out
		})
	reg.SampleCounters("lasthop_host_hibernations_total",
		"Sessions whose state was dropped to the spool after the idle threshold.",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.hibernations.Load())}}
		})
	reg.SampleCounters("lasthop_host_rehydrations_total",
		"Hibernated sessions rebuilt from the spool (hello or crash recovery).",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.rehydrations.Load())}}
		})
	reg.SampleCounters("lasthop_host_rehydrate_failures_total",
		"Rehydrations that hit an unreadable snapshot or delta (session restarted empty or lost a delta).",
		[]string{"host"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{host}, Value: float64(h.rehydrateFailures.Load())}}
		})
	h.rehydrateHist.Store(reg.Histogram("lasthop_host_rehydrate_seconds",
		"Latency of rebuilding one session from its spool chain on hello.",
		obs.LatencyBuckets()))
}

// allSessionStats snapshots every session's core counters, grouped so each
// worker's wheel is entered once.
func (h *Host) allSessionStats() ([]string, []core.Stats) {
	byWorker := make([][]*Session, len(h.workers))
	h.mu.Lock()
	for _, s := range h.sessions {
		byWorker[s.w.id] = append(byWorker[s.w.id], s)
	}
	h.mu.Unlock()
	var (
		names []string
		stats []core.Stats
	)
	for i, sessions := range byWorker {
		if len(sessions) == 0 {
			continue
		}
		local := sessions
		h.workers[i].wheel.Run(func() {
			for _, s := range local {
				if s.proxy == nil {
					continue // hibernated: sampling must not rehydrate
				}
				names = append(names, s.name)
				stats = append(stats, s.proxy.Stats())
			}
		})
	}
	return names, stats
}
