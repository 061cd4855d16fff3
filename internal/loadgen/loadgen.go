// Package loadgen drives a real broker → proxy → device topology at
// configurable scale and measures end-to-end throughput: P concurrent
// publishers push notifications through a wire.BrokerServer, last-hop
// proxies subscribe and forward across the last hop, and the run
// completes when every device holds everything it was owed. The proxy
// tier is either one wire.ProxyServer per device (the paper's
// one-proxy-per-user deployment) or, with Config.MultiTenant, a single
// host.Host carrying every device session over sharded workers and one
// multiplexed broker connection. It is the measurement harness behind
// cmd/lasthop-loadgen and the BENCH_PR2/BENCH_PR5 trajectories.
package loadgen

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/host"
	"lasthop/internal/metrics"
	"lasthop/internal/msg"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

// Config sizes one load-generation run. The zero value is usable: it
// resolves to a small smoke-scale run.
type Config struct {
	// Publishers is the number of concurrent publisher connections.
	Publishers int `json:"publishers"`
	// Devices is the number of device connections; each device gets its
	// own last-hop proxy, as in the paper's deployment model.
	Devices int `json:"devices"`
	// Topics is the number of distinct topics; device i subscribes to
	// topic i mod Topics. Defaults to Devices.
	Topics int `json:"topics"`
	// Notifications is the total number of notifications published,
	// spread round-robin across topics.
	Notifications int `json:"notifications"`
	// PublishBatch is how many notifications each publisher pipelines into
	// one batched round trip (wire.BrokerClient.PublishBatch): the whole
	// chunk rides one vectored flush and the acknowledgements coalesce
	// symmetrically. 1 publishes one-at-a-time; zero means 16.
	PublishBatch int `json:"publishBatch"`
	// PublishWindow is how many batches each publisher connection keeps in
	// flight at once. With a window of 1 every PublishBatch round trip
	// serializes behind its acknowledgement, capping each connection near
	// batch/RTT regardless of how fast the broker routes; a wider window
	// pipelines the acks away (wire.BrokerClient calls are
	// concurrency-safe, so the window is just W goroutines sharing one
	// connection). Zero means 4.
	PublishWindow int `json:"publishWindow"`
	// HistoryLimit bounds each subscription's retained proxy-side history
	// (wire.TopicPolicy.HistoryLimit). Every delivered notification stays
	// checked out of the burst pool until its history entry is evicted, so
	// the core default (131072 per topic) means a throughput run recycles
	// nothing and the reported PoolHitRate collapses to the publisher-side
	// cycle. Bounding it to a few times the in-flight depth is the
	// steady-state regime the pool is designed for. Zero keeps the core
	// default; negative means unbounded.
	HistoryLimit int `json:"historyLimit,omitempty"`
	// PayloadBytes is the payload size of every notification.
	PayloadBytes int `json:"payloadBytes"`
	// OnDemand switches the devices to on-demand topics consumed with
	// §3.5 READ requests; the default is on-line forwarding.
	OnDemand bool `json:"onDemand"`
	// MultiTenant runs all devices against one host.Host instead of one
	// wire.ProxyServer per device: sessions shard across the host's
	// workers and all upstream traffic shares one multiplexed broker
	// connection.
	MultiTenant bool `json:"multiTenant"`
	// HostWorkers is the host's worker count in MultiTenant mode. Zero
	// means GOMAXPROCS.
	HostWorkers int `json:"hostWorkers,omitempty"`
	// SpoolDir enables session hibernation on the multi-tenant host:
	// disconnected sessions serialize into a write-ahead spool under this
	// directory after HibernateAfter and are rebuilt on reconnect or
	// restart.
	SpoolDir string `json:"spoolDir,omitempty"`
	// HibernateAfter is how long a disconnected session lingers in memory
	// before spooling. Zero means the host default (1 minute).
	HibernateAfter time.Duration `json:"-"`
	// SpoolCommitEvery is the spool group-commit interval. Zero means the
	// host default (100ms).
	SpoolCommitEvery time.Duration `json:"-"`
	// SpoolFsync selects spool durability: "always", "commit", or
	// "never". Empty means commit.
	SpoolFsync string `json:"spoolFsync,omitempty"`
	// ObsAddr, when set, serves /metrics, /healthz, /debug/pprof, and
	// /debug/traces for the whole topology on this address for the
	// duration of the run.
	ObsAddr string `json:"obsAddr,omitempty"`
	// TraceSample head-samples this fraction of published notifications
	// into end-to-end traces (0 disables tracing; anomalies are still
	// traced when > 0 is ever observed on a node with a collector). The
	// whole in-process topology shares one collector, so each trace is a
	// complete publisher → broker → proxy → device timeline.
	TraceSample float64 `json:"traceSample,omitempty"`
	// TraceRing bounds the completed-trace ring. Zero sizes it to hold
	// every notification of the run, so no sampled trace is evicted
	// before the report is computed.
	TraceRing int `json:"traceRing,omitempty"`
	// Linger keeps the topology (and the ObsAddr endpoint) alive this
	// long after the last delivery, so external scrapers can observe the
	// run's final state.
	Linger time.Duration `json:"-"`
	// Timeout bounds the whole run. Zero means a minute.
	Timeout time.Duration `json:"-"`
	// Logf receives progress diagnostics; nil silences them.
	Logf func(string, ...any) `json:"-"`
	// Registry receives every layer's metric families; nil creates a
	// private one. Tests pass their own to assert on the scrape.
	Registry *obs.Registry `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Publishers <= 0 {
		c.Publishers = 4
	}
	if c.Devices <= 0 {
		c.Devices = 4
	}
	if c.Topics <= 0 || c.Topics > c.Devices {
		c.Topics = c.Devices
	}
	if c.Notifications <= 0 {
		c.Notifications = 1000
	}
	if c.PublishBatch <= 0 {
		c.PublishBatch = 16
	}
	if c.PublishWindow <= 0 {
		c.PublishWindow = 4
	}
	if c.PayloadBytes < 0 {
		c.PayloadBytes = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// hostOptions translates the loadgen spool knobs into host.Options,
// validating the fsync policy string.
func (c Config) hostOptions(brokerAddr string, wm *wire.Metrics, collector *trace.Collector) (host.Options, error) {
	fsync, err := spool.ParseFsyncPolicy(c.SpoolFsync)
	if err != nil {
		return host.Options{}, err
	}
	return host.Options{
		BrokerAddr:       brokerAddr,
		Name:             "lg-host",
		Workers:          c.HostWorkers,
		Metrics:          wm,
		Trace:            collector,
		Logf:             c.Logf,
		SpoolDir:         c.SpoolDir,
		HibernateAfter:   c.HibernateAfter,
		SpoolCommitEvery: c.SpoolCommitEvery,
		SpoolFsync:       fsync,
	}, nil
}

// Report is the outcome of one run.
type Report struct {
	Config Config `json:"config"`

	// Published is how many notifications were acknowledged by the
	// broker; Delivered is how many landed on (on-line) or were read by
	// (on-demand) the devices.
	Published int `json:"published"`
	Delivered int `json:"delivered"`

	// Duplicates counts pushes that revised a notification a device
	// already held. The load publishes no rank revisions, so any nonzero
	// value is a duplicate delivery — the multi-tenant fan-out must keep
	// this at zero.
	Duplicates int `json:"duplicates"`

	// PublishSeconds is the wall-clock time until the last publish was
	// acknowledged; DeliverSeconds until the last device delivery.
	PublishSeconds float64 `json:"publishSeconds"`
	DeliverSeconds float64 `json:"deliverSeconds"`

	// PublishPerSec and DeliverPerSec are the derived rates.
	PublishPerSec float64 `json:"publishPerSec"`
	DeliverPerSec float64 `json:"deliverPerSec"`

	// PerPublisher breaks the publish side down per connection, so a
	// publisher-side bottleneck (the pre-batching regime: publishPerSec an
	// order of magnitude below deliverPerSec) is visible directly in the
	// report rather than inferred.
	PerPublisher []PublisherStats `json:"perPublisher,omitempty"`

	// Runtime telemetry over the measured window (topology up → last
	// delivery): allocation and GC pressure plus burst-pool effectiveness.
	AllocObjects   uint64  `json:"allocObjects"`
	AllocBytes     uint64  `json:"allocBytes"`
	NumGC          uint32  `json:"numGC"`
	GCPauseTotalMs float64 `json:"gcPauseTotalMs"`
	// PoolHitRate is the fraction of notification-pool Gets served from
	// the free pool over the measured window. PoolOutstanding is the net
	// checked-out count sampled AFTER the run's topology is torn down and
	// its in-flight references have drained; a clean run reports ~0, and
	// any residue is a real leak rather than frames still sitting in
	// egress rings. (Earlier revisions sampled before teardown and could
	// report the whole run's transient footprint.)
	PoolHitRate     float64 `json:"poolHitRate"`
	PoolOutstanding int64   `json:"poolOutstanding"`

	// Delivery latency quantiles in milliseconds, from publish timestamp
	// to device receipt (on-line) or user read (on-demand), interpolated
	// from an HDR-style log-bucketed histogram.
	LatencyP50Ms float64 `json:"latencyP50Ms"`
	LatencyP95Ms float64 `json:"latencyP95Ms"`
	LatencyP99Ms float64 `json:"latencyP99Ms"`

	// Tracing summary, present when TraceSample > 0: how many traces were
	// head-sampled, the terminal outcome tally, and the per-hop latency
	// decomposition of the delivered traces (broker routing, proxy
	// queueing, and the last hop).
	TraceSampled  uint64                        `json:"traceSampled,omitempty"`
	TraceOutcomes map[string]uint64             `json:"traceOutcomes,omitempty"`
	HopLatencyMs  map[string]trace.HopQuantiles `json:"hopLatencyMs,omitempty"`

	// WastePct is §3.1 waste among the sampled traces: last-hop transfers
	// the user never read, as a percentage of all last-hop transfers.
	// TraceConservation is empty on a clean run; with full sampling it
	// reports any violation of the one-terminal-outcome-per-notification
	// invariant instead of folding bad books into WastePct.
	WastePct          float64 `json:"wastePct,omitempty"`
	TraceConservation string  `json:"traceConservation,omitempty"`

	// Verdict is the budget comparison of a scenario run (RunScenario
	// only; nil for plain Run reports).
	Verdict *Verdict `json:"verdict,omitempty"`

	// Collector holds the run's completed traces for JSONL export
	// (cmd/lasthop-loadgen -trace-out); not part of the JSON report.
	Collector *trace.Collector `json:"-"`
}

// PublisherStats is one publisher connection's share of the load.
type PublisherStats struct {
	Publisher string  `json:"publisher"`
	Published int     `json:"published"`
	Batches   int     `json:"batches"`
	PerSec    float64 `json:"perSec"`
}

// node is one device leg: its device client plus, in per-device mode, a
// dedicated last-hop proxy (nil in multi-tenant mode, where every device
// shares the host).
type node struct {
	proxy  *wire.ProxyServer
	plis   net.Listener
	dev    *wire.DeviceClient
	topic  string
	expect int
}

// Run builds the topology, publishes the configured load, waits for every
// delivery, and reports the measured rates and latency quantiles.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	deadline := time.Now().Add(cfg.Timeout)

	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	metrics.Register(reg)
	burst.RegisterMetrics(reg)
	wm := wire.NewMetrics(reg)
	latency := reg.Histogram("lasthop_loadgen_delivery_latency_seconds",
		"End-to-end delivery latency from publish to device receipt or user read.",
		obs.LatencyBuckets())

	// One collector for the whole in-process topology: the broker mints
	// contexts, proxies and devices record against them, and every trace
	// is a complete end-to-end timeline.
	var collector *trace.Collector
	if cfg.TraceSample > 0 {
		ring := cfg.TraceRing
		if ring <= 0 {
			ring = cfg.Notifications + 16
		}
		collector = trace.NewCollector("loadgen", trace.NewSampler(cfg.TraceSample), ring)
		collector.RegisterMetrics(reg)
	}

	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, reg,
			obs.Route{Pattern: "/debug/traces", Handler: collector.Handler()})
		if err != nil {
			return nil, fmt.Errorf("obs endpoint: %w", err)
		}
		defer func() { _ = srv.Close() }()
		cfg.Logf("loadgen: observability on http://%s/metrics", srv.Addr())
	}

	// Teardown is explicit (and idempotent) rather than pure defers: the
	// clean path tears the topology down BEFORE sampling pool residency,
	// so PoolOutstanding reflects what actually leaked instead of frames
	// still queued in egress rings. Error paths fall back to the defer.
	var (
		closers      []func()
		teardownOnce sync.Once
	)
	teardown := func() {
		teardownOnce.Do(func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		})
	}
	defer teardown()

	blis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	broker := pubsub.NewBroker("loadgen")
	broker.RegisterMetrics(reg)
	if collector != nil {
		broker.SetTracer(collector)
	}
	bs := wire.NewBrokerServerOpts(broker, wire.ServerOptions{Metrics: wm})
	go func() { _ = bs.Serve(blis) }()
	closers = append(closers, func() { bs.Close() })
	brokerAddr := blis.Addr().String()

	topics := make([]string, cfg.Topics)
	for i := range topics {
		topics[i] = fmt.Sprintf("load/t%03d", i)
	}

	nodes := make([]*node, cfg.Devices)
	closers = append(closers, func() {
		for _, nd := range nodes {
			if nd == nil {
				continue
			}
			if nd.dev != nil {
				_ = nd.dev.Close()
			}
			if nd.proxy != nil {
				nd.proxy.Close()
			}
		}
	})
	mode := "on-line"
	if cfg.OnDemand {
		mode = "on-demand"
	}
	// Bounding the retained history (when configured) is what lets the
	// proxy-side pool references recycle at steady state instead of
	// accumulating for the whole run; see Config.HistoryLimit.
	pol := wire.TopicPolicy{Mode: mode, HistoryLimit: cfg.HistoryLimit}
	var hostAddr string
	if cfg.MultiTenant {
		hostOpts, err := cfg.hostOptions(brokerAddr, wm, collector)
		if err != nil {
			return nil, err
		}
		h, err := host.New(hostOpts)
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
		closers = append(closers, h.Close)
		h.RegisterMetrics(reg, "lg-host")
		hlis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = h.Serve(hlis) }()
		hostAddr = hlis.Addr().String()
	}
	for i := range nodes {
		var nd *node
		if cfg.MultiTenant {
			nd, err = newHostNode(hostAddr, i, topics[i%cfg.Topics], pol, reg, wm, collector)
		} else {
			nd, err = newNode(brokerAddr, i, topics[i%cfg.Topics], pol, reg, wm, collector)
		}
		if err != nil {
			return nil, err
		}
		if !cfg.OnDemand {
			// On-line deliveries complete at push time; on-demand ones at
			// read time (observed in awaitDeliveries instead).
			nd.dev.SetOnPush(func(n *msg.Notification) {
				latency.Observe(time.Since(n.Published).Seconds())
			})
		}
		nodes[i] = nd
	}
	if cfg.MultiTenant {
		cfg.Logf("loadgen: %d device sessions attached to one host", cfg.Devices)
	} else {
		cfg.Logf("loadgen: %d devices attached through their proxies", cfg.Devices)
	}

	pubs := make([]*wire.BrokerClient, cfg.Publishers)
	closers = append(closers, func() {
		for _, p := range pubs {
			if p != nil {
				_ = p.Close()
			}
		}
	})
	for i := range pubs {
		pub, err := wire.DialBrokerOpts(brokerAddr, fmt.Sprintf("lg-pub-%d", i), wire.ClientOptions{Metrics: wm})
		if err != nil {
			return nil, fmt.Errorf("publisher %d: %w", i, err)
		}
		pubs[i] = pub
		// Topics are single-publisher; every connection claims them under
		// one shared identity (re-advertising the same name is idempotent)
		// so all publishers can feed all topics.
		for _, t := range topics {
			if err := pub.Advertise(t, "loadgen"); err != nil {
				return nil, fmt.Errorf("advertise %s: %w", t, err)
			}
		}
	}

	// Notification i goes to topic i mod Topics; every device subscribed
	// there is owed one delivery of it.
	perTopic := make([]int, cfg.Topics)
	for i := 0; i < cfg.Notifications; i++ {
		perTopic[i%cfg.Topics]++
	}
	for i, nd := range nodes {
		nd.expect = perTopic[i%cfg.Topics]
	}

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	cfg.Logf("loadgen: publishing %d notifications from %d publishers (batch %d, window %d)",
		cfg.Notifications, cfg.Publishers, cfg.PublishBatch, cfg.PublishWindow)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	poolBefore := burst.Notes.Stats()
	start := time.Now()
	var (
		wg       sync.WaitGroup
		pubMu    sync.Mutex
		pubErr   error
		next     = make(chan int, cfg.Publishers*cfg.PublishWindow*cfg.PublishBatch)
		pubStats = make([]PublisherStats, cfg.Publishers)
	)
	go func() {
		for i := 0; i < cfg.Notifications; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < cfg.Publishers; w++ {
		pubStats[w].Publisher = fmt.Sprintf("lg-pub-%d", w)
		// Each connection runs PublishWindow batch loops concurrently, so
		// up to that many PublishBatch round trips are in flight per
		// publisher and no ack serializes the next chunk.
		for slot := 0; slot < cfg.PublishWindow; slot++ {
			wg.Add(1)
			go func(w int, pub *wire.BrokerClient) {
				defer wg.Done()
				published, batches := 0, 0
				// Each chunk is built from pooled notifications, pipelined as
				// one PublishBatch round trip (single vectored flush on the
				// wire), and recycled once the broker has acknowledged it.
				batch := make([]*msg.Notification, 0, cfg.PublishBatch)
				for {
					batch = batch[:0]
					for i := range next {
						n := burst.Notes.Get()
						n.ID = msg.ID(fmt.Sprintf("lg-%d", i))
						n.Topic = topics[i%cfg.Topics]
						n.Publisher = "loadgen"
						n.Rank = float64(1 + i%5)
						n.Published = time.Now()
						n.Payload = append(n.Payload[:0], payload...)
						batch = append(batch, n)
						if len(batch) == cfg.PublishBatch {
							break
						}
					}
					if len(batch) == 0 {
						break
					}
					errs := pub.PublishBatch(batch)
					failed := false
					for k, err := range errs {
						if err != nil {
							failed = true
							pubMu.Lock()
							if pubErr == nil {
								pubErr = fmt.Errorf("publish %s: %w", batch[k].ID, err)
							}
							pubMu.Unlock()
						}
					}
					published += len(batch)
					batches++
					for _, n := range batch {
						burst.Notes.Put(n)
					}
					if failed {
						break
					}
				}
				pubMu.Lock()
				pubStats[w].Published += published
				pubStats[w].Batches += batches
				pubMu.Unlock()
			}(w, pubs[w])
		}
	}
	wg.Wait()
	if pubErr != nil {
		return nil, pubErr
	}
	publishElapsed := time.Since(start)
	if s := publishElapsed.Seconds(); s > 0 {
		for w := range pubStats {
			pubStats[w].PerSec = float64(pubStats[w].Published) / s
		}
	}

	delivered, err := awaitDeliveries(nodes, cfg, deadline, latency)
	deliverElapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	poolAfter := burst.Notes.Stats()
	duplicates := 0
	for _, nd := range nodes {
		_, updates, _ := nd.dev.Stats()
		duplicates += updates
	}
	if collector != nil && err == nil && !cfg.OnDemand {
		// Final read pass: consume what was pushed so every delivered
		// trace terminates in a user read instead of being written off as
		// waste when the run ends. (On-demand devices already read.)
		for _, nd := range nodes {
			if _, rerr := nd.dev.Read(nd.topic, 0); rerr != nil {
				cfg.Logf("loadgen: final read on %s: %v", nd.topic, rerr)
				break
			}
		}
	}
	collector.FinishActive(time.Now())
	rep := &Report{
		Config:         cfg,
		Published:      cfg.Notifications,
		Delivered:      delivered,
		Duplicates:     duplicates,
		PublishSeconds: publishElapsed.Seconds(),
		DeliverSeconds: deliverElapsed.Seconds(),
		LatencyP50Ms:   latency.Quantile(0.50) * 1000,
		LatencyP95Ms:   latency.Quantile(0.95) * 1000,
		LatencyP99Ms:   latency.Quantile(0.99) * 1000,
	}
	if s := rep.PublishSeconds; s > 0 {
		rep.PublishPerSec = float64(rep.Published) / s
	}
	if s := rep.DeliverSeconds; s > 0 {
		rep.DeliverPerSec = float64(rep.Delivered) / s
	}
	rep.PerPublisher = pubStats
	rep.AllocObjects = memAfter.Mallocs - memBefore.Mallocs
	rep.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	rep.NumGC = memAfter.NumGC - memBefore.NumGC
	rep.GCPauseTotalMs = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6
	window := burst.PoolStats{
		Gets:   poolAfter.Gets - poolBefore.Gets,
		Puts:   poolAfter.Puts - poolBefore.Puts,
		Misses: poolAfter.Misses - poolBefore.Misses,
	}
	rep.PoolHitRate = window.HitRate()
	finishTraces(rep, collector)
	if err == nil && cfg.Linger > 0 {
		cfg.Logf("loadgen: run complete, lingering %v for scrapers", cfg.Linger)
		time.Sleep(cfg.Linger)
	}
	// Sample pool residency only after the topology is down: teardown is
	// asynchronous at the edges (egress rings flush their last shared
	// frames on Close, wheel callbacks drain), so an immediate sample
	// races the final releases and would count the run's transient
	// footprint as leakage.
	teardown()
	rep.PoolOutstanding = drainedOutstanding(2 * time.Second)
	return rep, err
}

// drainedOutstanding polls the notification pool's net checked-out count
// until it reaches zero or the grace period expires, returning the final
// sample. A non-zero return after the grace period is a genuine leak.
func drainedOutstanding(grace time.Duration) int64 {
	deadline := time.Now().Add(grace)
	for {
		out := burst.Notes.Stats().Outstanding()
		if out == 0 || time.Now().After(deadline) {
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newNode(brokerAddr string, i int, topic string, pol wire.TopicPolicy, reg *obs.Registry, wm *wire.Metrics, collector *trace.Collector) (*node, error) {
	name := fmt.Sprintf("lg-proxy-%d", i)
	ps, err := wire.NewProxyServerOpts(wire.ProxyOptions{
		BrokerAddr: brokerAddr,
		Name:       name,
		Metrics:    wm,
		Trace:      collector,
	})
	if err != nil {
		return nil, fmt.Errorf("proxy %d: %w", i, err)
	}
	ps.RegisterMetrics(reg, name)
	nd := &node{proxy: ps, topic: topic}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ps.Close()
		return nil, err
	}
	nd.plis = lis
	go func() { _ = ps.Serve(lis) }()
	devName := fmt.Sprintf("lg-dev-%d", i)
	dev, err := wire.DialProxyOpts(lis.Addr().String(), devName, wire.ClientOptions{Metrics: wm, Trace: collector})
	if err != nil {
		ps.Close()
		return nil, fmt.Errorf("device %d: %w", i, err)
	}
	dev.RegisterMetrics(reg, devName)
	nd.dev = dev
	if err := dev.Subscribe(topic, pol); err != nil {
		_ = dev.Close()
		ps.Close()
		return nil, fmt.Errorf("subscribe %d: %w", i, err)
	}
	return nd, nil
}

// newHostNode attaches one device session to the shared multi-tenant
// host instead of spinning up a dedicated proxy.
func newHostNode(hostAddr string, i int, topic string, pol wire.TopicPolicy, reg *obs.Registry, wm *wire.Metrics, collector *trace.Collector) (*node, error) {
	devName := fmt.Sprintf("lg-dev-%d", i)
	dev, err := wire.DialProxyOpts(hostAddr, devName, wire.ClientOptions{Metrics: wm, Trace: collector})
	if err != nil {
		return nil, fmt.Errorf("device %d: %w", i, err)
	}
	dev.RegisterMetrics(reg, devName)
	nd := &node{dev: dev, topic: topic}
	if err := dev.Subscribe(topic, pol); err != nil {
		_ = dev.Close()
		return nil, fmt.Errorf("subscribe %d: %w", i, err)
	}
	return nd, nil
}

// awaitDeliveries blocks until every device holds its expected volume. For
// on-line topics pushes arrive on their own; on-demand devices issue READ
// requests until they have consumed everything.
func awaitDeliveries(nodes []*node, cfg Config, deadline time.Time, latency *obs.Histogram) (int, error) {
	if cfg.OnDemand {
		total := 0
		for _, nd := range nodes {
			got := 0
			for got < nd.expect {
				if time.Now().After(deadline) {
					return total + got, fmt.Errorf("timeout: device read %d of %d", got, nd.expect)
				}
				batch, err := nd.dev.Read(nd.topic, 0)
				if err != nil {
					return total + got, err
				}
				for _, n := range batch {
					latency.Observe(time.Since(n.Published).Seconds())
				}
				got += len(batch)
				if len(batch) == 0 {
					time.Sleep(5 * time.Millisecond)
				}
			}
			total += got
		}
		return total, nil
	}
	for {
		total := 0
		done := true
		for _, nd := range nodes {
			received, _, _ := nd.dev.Stats()
			total += received
			if received < nd.expect {
				done = false
			}
		}
		if done {
			return total, nil
		}
		if time.Now().After(deadline) {
			return total, fmt.Errorf("timeout: %d deliveries outstanding", expectedTotal(nodes)-total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func expectedTotal(nodes []*node) int {
	total := 0
	for _, nd := range nodes {
		total += nd.expect
	}
	return total
}
