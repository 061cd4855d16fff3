package pubsub

import (
	"strconv"

	"lasthop/internal/obs"
)

// RegisterMetrics exports the broker's routing-substrate state on reg:
// per-shard publish counters, duplicate suppressions, fan-out width, and
// seen-set occupancy. The broker label distinguishes multiple brokers
// sharing one registry. Call once per (registry, broker) pair.
func (b *Broker) RegisterMetrics(reg *obs.Registry) {
	b.fanoutHist.Store(reg.Histogram("lasthop_pubsub_fanout_width",
		"Subscribers reached per published notification.",
		obs.SizeBuckets()))

	reg.SampleCounters("lasthop_pubsub_publishes_total", "Accepted publishes per lock stripe.",
		[]string{"broker", "shard"}, func() []obs.Sample {
			var out []obs.Sample
			for i := range b.shards {
				v := b.shards[i].publishes.Load()
				if v == 0 {
					continue // keep scrapes compact: idle stripes stay silent
				}
				out = append(out, obs.Sample{
					Labels: []string{b.name, strconv.Itoa(i)},
					Value:  float64(v),
				})
			}
			return out
		})
	reg.SampleCounters("lasthop_pubsub_duplicates_total",
		"Notifications suppressed by the duplicate-ID record.",
		[]string{"broker"}, func() []obs.Sample {
			return []obs.Sample{{Labels: []string{b.name}, Value: float64(b.duplicates.Load())}}
		})

	reg.SampleGauges("lasthop_pubsub_seen_ids",
		"Duplicate-suppression set occupancy across all topics.",
		[]string{"broker"}, func() []obs.Sample {
			var total int
			for i := range b.shards {
				sh := &b.shards[i]
				sh.mu.Lock()
				for _, st := range sh.topics {
					total += st.seen.Len()
				}
				sh.mu.Unlock()
			}
			return []obs.Sample{{Labels: []string{b.name}, Value: float64(total)}}
		})
	reg.SampleGauges("lasthop_pubsub_topics",
		"Topics with local routing state.",
		[]string{"broker"}, func() []obs.Sample {
			var total int
			for i := range b.shards {
				sh := &b.shards[i]
				sh.mu.Lock()
				total += len(sh.topics)
				sh.mu.Unlock()
			}
			return []obs.Sample{{Labels: []string{b.name}, Value: float64(total)}}
		})
	reg.SampleGauges("lasthop_pubsub_subscribers",
		"Local subscriptions across all topics.",
		[]string{"broker"}, func() []obs.Sample {
			var total int
			for i := range b.shards {
				sh := &b.shards[i]
				sh.mu.Lock()
				for _, st := range sh.topics {
					total += len(st.subs)
				}
				sh.mu.Unlock()
			}
			return []obs.Sample{{Labels: []string{b.name}, Value: float64(total)}}
		})
}
