package wire

import (
	"lasthop/internal/core"
	"lasthop/internal/metrics"
	"lasthop/internal/obs"
)

// RegisterMetrics exports the proxy's core-algorithm state on reg as
// scrape-time sampled families: the Stats counters, the live §3.1 waste
// percentage, and per-topic queue depths and tuner outputs. The proxy
// label distinguishes multiple proxies sharing one registry. Call once
// per (registry, proxy) pair.
func (ps *ProxyServer) RegisterMetrics(reg *obs.Registry, proxy string) {
	counter := func(name, help string, get func(core.Stats) int) {
		reg.SampleCounters(name, help, []string{"proxy"}, func() []obs.Sample {
			_, st := ps.Snapshots()
			return []obs.Sample{{Labels: []string{proxy}, Value: float64(get(st))}}
		})
	}
	counter("lasthop_core_notifications_total", "Notification arrivals from the routing substrate.",
		func(st core.Stats) int { return st.Notifications })
	counter("lasthop_core_forwards_total", "Messages pushed to the device, including rank-drop signals.",
		func(st core.Stats) int { return st.Forwards })
	counter("lasthop_core_rank_drop_signals_total", "Forwards that only signal a rank drop of an already-forwarded notification.",
		func(st core.Stats) int { return st.RankDropSignals })
	counter("lasthop_core_expirations_total", "Notifications expired while queued on the proxy.",
		func(st core.Stats) int { return st.Expirations })
	counter("lasthop_core_reads_total", "Read requests from the device.",
		func(st core.Stats) int { return st.Reads })
	counter("lasthop_core_read_consumed_total", "Notifications consumed by user reads (the read side of the waste metric).",
		func(st core.Stats) int { return st.ReadConsumed })
	counter("lasthop_core_rejected_total", "Arrivals dropped at the edge: below threshold or expired.",
		func(st core.Stats) int { return st.Rejected })
	counter("lasthop_core_resumes_total", "Session-resumption reconciliations after device reconnects.",
		func(st core.Stats) int { return st.Resumes })
	counter("lasthop_core_resume_requeued_total", "Forwarded notifications lost in flight and re-queued on resume.",
		func(st core.Stats) int { return st.ResumeRequeued })
	counter("lasthop_core_resume_lost_total", "Forwarded notifications lost in flight and irrecoverable on resume.",
		func(st core.Stats) int { return st.ResumeLost })

	reg.SampleGauges("lasthop_core_waste_pct",
		"Live §3.1 waste: percentage of forwarded notifications never read. Negative means the read/forward conservation identity is violated.",
		[]string{"proxy"}, func() []obs.Sample {
			_, st := ps.Snapshots()
			// A violated identity surfaces as a negative value here; the
			// violations counter (metrics.Register) counts the events.
			pct, _ := metrics.WastePctChecked(st.Forwards-st.RankDropSignals, st.ReadConsumed)
			return []obs.Sample{{Labels: []string{proxy}, Value: pct}}
		})

	reg.SampleGauges("lasthop_core_topic_queue_depth",
		"Per-topic Figure 7 stage depths.",
		[]string{"proxy", "topic", "queue"}, func() []obs.Sample {
			snaps, _ := ps.Snapshots()
			out := make([]obs.Sample, 0, 4*len(snaps))
			for _, s := range snaps {
				out = append(out,
					obs.Sample{Labels: []string{proxy, s.Name, "outgoing"}, Value: float64(s.Outgoing)},
					obs.Sample{Labels: []string{proxy, s.Name, "prefetch"}, Value: float64(s.Prefetch)},
					obs.Sample{Labels: []string{proxy, s.Name, "holding"}, Value: float64(s.Holding)},
					obs.Sample{Labels: []string{proxy, s.Name, "delayed"}, Value: float64(s.Delayed)},
				)
			}
			return out
		})

	topicGauge := func(name, help string, get func(core.TopicSnapshot) float64) {
		reg.SampleGauges(name, help, []string{"proxy", "topic"}, func() []obs.Sample {
			snaps, _ := ps.Snapshots()
			out := make([]obs.Sample, 0, len(snaps))
			for _, s := range snaps {
				out = append(out, obs.Sample{Labels: []string{proxy, s.Name}, Value: get(s)})
			}
			return out
		})
	}
	topicGauge("lasthop_core_topic_client_queue_view", "Proxy's view of the device queue size (§3.2).",
		func(s core.TopicSnapshot) float64 { return float64(s.QueueSizeView) })
	topicGauge("lasthop_core_topic_prefetch_limit", "Effective (possibly auto-tuned) prefetch limit.",
		func(s core.TopicSnapshot) float64 { return float64(s.PrefetchLimit) })
	topicGauge("lasthop_core_topic_expiration_threshold_seconds", "Effective (possibly auto-tuned) expiration threshold.",
		func(s core.TopicSnapshot) float64 { return s.ExpirationThreshold.Seconds() })
	topicGauge("lasthop_core_topic_delay_seconds", "Effective (possibly auto-tuned) rank-retraction delay.",
		func(s core.TopicSnapshot) float64 { return s.Delay.Seconds() })
	topicGauge("lasthop_core_topic_forwarded_ids", "IDs the proxy believes delivered to the device.",
		func(s core.TopicSnapshot) float64 { return float64(s.Forwarded) })
	topicGauge("lasthop_core_topic_history_size", "Per-topic event history size.",
		func(s core.TopicSnapshot) float64 { return float64(s.History) })

	reg.SampleGauges("lasthop_proxy_device_connected",
		"Whether a device session is currently attached (by session name).",
		[]string{"proxy", "device"}, func() []obs.Sample {
			var out []obs.Sample
			for _, s := range ps.Sessions() {
				v := 0.0
				if s.Connected {
					v = 1.0
				}
				out = append(out, obs.Sample{Labels: []string{proxy, s.Name}, Value: v})
			}
			return out
		})
	reg.SampleCounters("lasthop_proxy_device_connects_total",
		"Device connection establishments per session.",
		[]string{"proxy", "device"}, func() []obs.Sample {
			var out []obs.Sample
			for _, s := range ps.Sessions() {
				out = append(out, obs.Sample{Labels: []string{proxy, s.Name}, Value: float64(s.Connects)})
			}
			return out
		})
}

// RegisterMetrics exports the device client's local state on reg: delivery
// and rank-revision counters plus per-topic local queue and read-set
// sizes. The device label distinguishes multiple clients sharing one
// registry. Call once per (registry, device) pair.
func (d *DeviceClient) RegisterMetrics(reg *obs.Registry, device string) {
	counter := func(name, help string, get func() int) {
		reg.SampleCounters(name, help, []string{"device"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{device}, Value: float64(get())}}
		})
	}
	counter("lasthop_device_received_total", "First-time notification deliveries.", func() int {
		r, _, _ := d.Stats()
		return r
	})
	counter("lasthop_device_rank_updates_total", "Rank revisions applied to already-held notifications.", func() int {
		_, u, _ := d.Stats()
		return u
	})
	counter("lasthop_device_rank_drops_total", "Local copies discarded by below-threshold rank revisions.", func() int {
		_, _, dr := d.Stats()
		return dr
	})
	counter("lasthop_device_reconnects_total", "Automatic session resumptions.", d.Reconnects)

	// Both per-topic gauges read a length from the store under one lock;
	// a scrape copies no ID.
	topicGauge := func(name, help string, get func(topic string) int) {
		reg.SampleGauges(name, help, []string{"device", "topic"}, func() []obs.Sample {
			d.smu.Lock()
			defer d.smu.Unlock()
			var out []obs.Sample
			for _, t := range d.store.Topics() {
				out = append(out, obs.Sample{Labels: []string{device, t}, Value: float64(get(t))})
			}
			return out
		})
	}
	topicGauge("lasthop_device_queue_depth", "Local ranked-queue depth per topic.", d.store.QueueLen)
	topicGauge("lasthop_device_read_ids", "Consumed-notification ID set size per topic.", d.store.ConsumedLen)
}
