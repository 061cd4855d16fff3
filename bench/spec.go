package main

import (
	"time"

	"lasthop/internal/wire"
)

// A spec fixes one workload's shape and offered load. The values are part of
// the benchmark's definition (see README.md for why each was chosen): they
// are never calibrated at run time, so a parent commit and a change are
// offered the same load. --rate and --window override them for exploration
// only, and an overridden run says so in its report.
type spec struct {
	name string

	devices int // passive device sessions, at most 64
	topics  int // device i subscribes topic i mod topics; fan-out = devices/topics
	payload int // payload bytes per notification
	policy  wire.TopicPolicy

	// Open loop: rate publishes per second across all topics, each timed
	// from the instant it was due. Closed loop (rate 0): conns × window
	// goroutines each keep one batch of `batch` in flight.
	rate   float64
	conns  int
	window int
	batch  int

	// ranks are uniform in [0, 100); lifetime > 0 sets Expires = due + lifetime.
	lifetime time.Duration

	// readEvery > 0 makes every device issue Read(topic, readN) on that
	// period, timed from the instant each read was due.
	readEvery time.Duration
	readN     int

	// drainEvery > 0 gives every on-line device a user who reads everything
	// that has arrived (Read(topic, 0)) on that period. It is untimed: its
	// job is to keep wire.DeviceClient's local queue, and so the heap the
	// garbage collector walks, the same size in the last slice as in the
	// first.
	drainEvery time.Duration
}

func (s *spec) openLoop() bool { return s.rate > 0 }

// online reports that devices are pushed to as notifications arrive; the
// other workloads' devices pull with timed reads.
func (s *spec) online() bool { return s.readEvery == 0 }
func (s *spec) fanout() int  { return s.devices / s.topics }

const simYear = "sim-year"

var liveSpecs = []*spec{
	{
		name:    "unicast-steady",
		devices: 16, topics: 16, payload: 32,
		policy: wire.TopicPolicy{Mode: "on-line", Policy: "online", HistoryLimit: 64},
		rate:   15000, conns: 2, batch: 64,
		drainEvery: 250 * time.Millisecond,
	},
	{
		name:    "fanout-burst",
		devices: 64, topics: 2, payload: 128,
		policy: wire.TopicPolicy{Mode: "on-line", Policy: "online", HistoryLimit: 64},
		conns:  2, window: 4, batch: 64,
		drainEvery: 250 * time.Millisecond,
	},
	{
		name:    "ondemand-read",
		devices: 16, topics: 16, payload: 64,
		policy: wire.TopicPolicy{Mode: "on-demand", Max: 8, Threshold: 20},
		rate:   6400, conns: 2, batch: 64,
		lifetime:  5 * time.Second,
		readEvery: 50 * time.Millisecond, readN: 8,
	},
}

func findSpec(name string) *spec {
	for _, s := range liveSpecs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// workloadNames lists every workload in BENCHMARK.json order.
func workloadNames() []string {
	names := make([]string, 0, len(liveSpecs)+1)
	for _, s := range liveSpecs {
		names = append(names, s.name)
	}
	return append(names, simYear)
}

// Metric names. Every workload prints every end-to-end metric on an untraced
// run and every per-layer metric on a traced run (0 where the layer is
// bypassed); TestNamesMatchBenchmarkJSON pins both lists to BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_delivery", "us"},
	{"allocs_per_delivery", "count"},
	{"lasthop_bytes_per_delivery", "B"},
	{"peak_rss_mb", "MB"},
	{"useful_pct", "%"},
	{"delivered_pct", "%"},
}

var perLayerMetrics = []metricDef{
	{"gen.lag_p95_ms", "ms"},
	{"gen.batch_mean", "count"},
	{"wire.ingress_p50_us", "us"},
	{"wire.ingress_p95_us", "us"},
	{"wire.publish_rtt_p50_us", "us"},
	{"egress.p50_us", "us"},
	{"egress.p95_us", "us"},
	{"pubsub.publish_ns_per_op", "ns"},
	{"pubsub.route_ns_per_delivery", "ns"},
	{"wire.codec_ns_per_note", "ns"},
	{"wire.codec_allocs_per_note", "count"},
	{"wire.lasthop_writes_per_delivery", "count"},
	{"wire.lasthop_bytes_per_write", "B"},
	{"wire.read_rtt_p50_us", "us"},
	{"core.notify_ns_per_op", "ns"},
	{"core.read_us_per_op", "us"},
	{"core.allocs_per_notify", "count"},
	{"core.queue_depth_p95", "count"},
	{"core.useful_share", "ratio"},
	{"rankedq.push_ns_per_op", "ns"},
	{"rankedq.take_ns_per_op", "ns"},
	{"host.unattributed_us", "us"},
	{"host.unattributed_share", "ratio"},
	{"burst.pool_hit_rate", "ratio"},
	{"burst.outstanding_after", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.num_gc", "count"},
	{"runtime.goroutines", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.compare_ms_p50", "ms"},
	{"e2e.latency_p75_ms", "ms"},
	{"e2e.latency_p95_ms", "ms"},
	{"e2e.deliver_p99_ms", "ms"},
	{"e2e.deliver_p999_ms", "ms"},
	{"e2e.read_p99_ms", "ms"},
	{"e2e.saturated_p50_ms", "ms"},
	{"e2e.inflight_depth", "count"},
	{"trace.stamped_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

type metricDef struct{ name, unit string }
