package main

import (
	"container/heap"
	"fmt"
	"net"
	"sort"
	"strconv"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/rankedq"
	"lasthop/internal/simtime"
	"lasthop/internal/wire"
)

// Direct probes split the ledger's egress segment: the workload's own
// generated notifications are replayed straight into one layer's public
// functions with everything else absent. They cost what the layer costs
// alone, which is why host.unattributed_us is a residual and not a probe.

// stream describes the traffic one proxy session sees in a workload.
type stream struct {
	config          core.TopicConfig
	gap             time.Duration // between arrivals on the topic
	notifiesPerRead int           // 0: the session is never read
	readN           int
}

type probeResult struct {
	publishNs, routeNs     float64
	codecNs, codecAllocs   float64
	notifyNs, notifyAllocs float64
	readUs                 float64
	pushNs, takeNs         float64
}

// discard is a broker subscriber that drops what it is handed.
type discard struct{}

func (discard) Deliver(n *msg.Notification)      { burst.Notes.Put(n) }
func (discard) DeliverRankUpdate(msg.RankUpdate) {}

// probePubsub times Broker.Publish with one discarding subscriber per topic
// — what the broker holds in this topology, where the host multiplexes every
// device onto a single subscription — and spreads it over the device fan-out.
func probePubsub(sp *spec, gen *generator, ops int, res *probeResult) error {
	b := pubsub.NewBroker("probe")
	for _, topic := range gen.topics {
		if err := b.Advertise(topic, publisherName); err != nil {
			return err
		}
		if err := b.Subscribe(msg.Subscription{Topic: topic, Subscriber: "probe-host"}, discard{}); err != nil {
			return err
		}
	}
	notes := make([]msg.Notification, ops)
	now := time.Now()
	for i := range notes {
		gen.fill(&notes[i], uint64(i), now)
	}
	start := time.Now()
	for i := range notes {
		if err := b.Publish(&notes[i]); err != nil {
			return fmt.Errorf("pubsub probe: %w", err)
		}
	}
	res.publishNs = float64(time.Since(start)) / float64(ops)
	res.routeNs = res.publishNs / float64(sp.fanout())
	return nil
}

// probeCodec times wire.PushBatch → loopback TCP → Conn.Recv at the
// workload's payload and the batch size observed on its last hop: one encode
// and one decode per notification, sender and receiver running concurrently
// as they do on the real hop.
func probeCodec(sp *spec, gen *generator, notes, batchSize int, res *probeResult) error {
	if batchSize < 1 {
		batchSize = 1
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, aerr := lis.Accept()
		if aerr != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	tx := wire.NewConn(dialed)
	defer tx.Close()
	raw, ok := <-accepted
	if !ok {
		return fmt.Errorf("codec probe: accept failed")
	}
	rx := wire.NewConn(raw)
	defer rx.Close()

	// Frames cycle through a pool of distinct notifications, so the codec
	// sees the workload's spread of IDs, ranks and payloads, not one frame.
	const distinct = 256
	pool := make([]*msg.Notification, distinct*batchSize)
	now := time.Now()
	for i := range pool {
		pool[i] = &msg.Notification{}
		gen.fill(pool[i], uint64(i), now)
	}
	frames := notes / batchSize
	sendErr := make(chan error, 1)
	before := heapAllocs()
	start := time.Now()
	go func() {
		for i := 0; i < frames; i++ {
			batch := pool[i%distinct*batchSize:][:batchSize]
			if err := wire.PushBatch(tx, batch, true, false); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	got := 0
	for got < frames*batchSize {
		f, rerr := rx.Recv()
		if rerr != nil {
			return fmt.Errorf("codec probe: %w", rerr)
		}
		if f.Notification != nil {
			got++
		}
		got += len(f.Batch)
	}
	elapsed := time.Since(start)
	after := heapAllocs()
	if err := <-sendErr; err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	res.codecNs = float64(elapsed) / float64(got)
	res.codecAllocs = float64(after-before) / float64(got)
	return nil
}

// probeClock is the probes' scheduler: virtual time advanced by the probe,
// timers fired in order as it advances. It implements simtime.Scheduler with
// nothing but a heap, so the core probe stands on the interface alone.
type probeClock struct {
	now    time.Time
	timers timerHeap
	seq    uint64
}

type probeTimer struct {
	at    time.Time
	seq   uint64
	fn    func()
	index int
	owner *probeClock
}

func (t *probeTimer) Cancel() bool {
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.owner.timers, t.index)
	return true
}

type timerHeap []*probeTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x any) {
	t := x.(*probeTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	t.index = -1
	return t
}

var _ simtime.Scheduler = (*probeClock)(nil)

func (c *probeClock) Now() time.Time { return c.now }
func (c *probeClock) Run(fn func())  { fn() }
func (c *probeClock) Schedule(d time.Duration, fn func()) simtime.Timer {
	if d < 0 {
		d = 0
	}
	c.seq++
	t := &probeTimer{at: c.now.Add(d), seq: c.seq, fn: fn, owner: c}
	heap.Push(&c.timers, t)
	return t
}

func (c *probeClock) advance(d time.Duration) {
	target := c.now.Add(d)
	for len(c.timers) > 0 && !c.timers[0].at.After(target) {
		t := heap.Pop(&c.timers).(*probeTimer)
		c.now = t.at
		t.fn()
	}
	c.now = target
}

// probeDevice is the no-op BatchForwarder plus the little a read needs from a
// device: it remembers what was forwarded so a read can offer its best local
// IDs and then consume them, as wire.DeviceClient does.
type probeDevice struct{ held []*msg.Notification }

func (d *probeDevice) Forward(n *msg.Notification) error { d.held = append(d.held, n); return nil }
func (d *probeDevice) ForwardBatch(b []*msg.Notification) error {
	d.held = append(d.held, b...)
	return nil
}

// sortBest drops what has expired and orders the rest best first.
func (d *probeDevice) sortBest(now time.Time) {
	live := d.held[:0]
	for _, n := range d.held {
		if !n.Expired(now) {
			live = append(live, n)
		}
	}
	d.held = live
	sort.Slice(d.held, func(i, j int) bool { return d.held[i].Before(d.held[j]) })
}

// probeCore replays one session's traffic into core.Proxy: Notify at the
// workload's arrival spacing, expiry timers firing as virtual time passes,
// and a Read after every notifiesPerRead arrivals.
func probeCore(st stream, gen func(n *msg.Notification, seq uint64, at time.Time), ops int, res *probeResult) (depth int, err error) {
	clock := &probeClock{now: time.Unix(1_700_000_000, 0)}
	dev := &probeDevice{}
	p := core.New(clock, dev)
	if err := p.AddTopic(st.config); err != nil {
		return 0, fmt.Errorf("core probe: %w", err)
	}
	notes := make([]*msg.Notification, ops)
	for i := range notes {
		notes[i] = &msg.Notification{}
		gen(notes[i], uint64(i), clock.now.Add(time.Duration(i+1)*st.gap))
	}
	// Notify time covers the arrivals between two reads, expiry timers
	// included: they are core's work too.
	var notifyTime, readTime time.Duration
	var notifyAllocs uint64
	var reads int
	var depths []float64
	t0, a0 := time.Now(), heapAllocs()
	for i, n := range notes {
		clock.advance(st.gap)
		p.Notify(n)
		if st.notifiesPerRead == 0 {
			dev.held = dev.held[:0]
			continue
		}
		if (i+1)%st.notifiesPerRead != 0 {
			continue
		}
		notifyTime += time.Since(t0)
		notifyAllocs += heapAllocs() - a0
		dev.sortBest(clock.now)
		offer := min(st.readN, len(dev.held))
		req := msg.ReadRequest{Topic: st.config.Name, N: st.readN, QueueSize: len(dev.held)}
		for _, h := range dev.held[:offer] {
			req.ClientEvents = append(req.ClientEvents, h.ID)
		}
		if snap, ok := p.Snapshot(st.config.Name); ok {
			depths = append(depths, float64(snap.Outgoing+snap.Prefetch+snap.Holding))
		}
		r0 := time.Now()
		if err := p.Read(req); err != nil {
			return 0, fmt.Errorf("core probe: %w", err)
		}
		readTime += time.Since(r0)
		reads++
		dev.sortBest(clock.now)
		dev.held = dev.held[min(st.readN, len(dev.held)):]
		t0, a0 = time.Now(), heapAllocs()
	}
	notifyTime += time.Since(t0)
	notifyAllocs += heapAllocs() - a0
	res.notifyNs = float64(notifyTime) / float64(ops)
	res.notifyAllocs = float64(notifyAllocs) / float64(ops)
	if reads > 0 {
		res.readUs = float64(readTime) / float64(reads) / 1e3
	}
	return int(quantileOf(depths, 0.95)), nil
}

// probeRankedq times Queue.Push and TakeBestN(8) around a steady depth.
func probeRankedq(depth, rounds int, res *probeResult) {
	if depth < 8 {
		depth = 8
	}
	q := rankedq.NewQueue()
	seq := uint64(0)
	next := func() *msg.Notification {
		seq++
		return &msg.Notification{
			ID:    msg.ID(strconv.FormatUint(seq, 10)),
			Topic: "probe",
			Rank:  float64(splitmix64(seq)>>11) / (1 << 53) * 100,
		}
	}
	for q.Len() < depth {
		_ = q.Push(next())
	}
	fresh := make([]*msg.Notification, 8)
	var pushTime, takeTime time.Duration
	for r := 0; r < rounds; r++ {
		for i := range fresh {
			fresh[i] = next()
		}
		t0 := time.Now()
		for _, n := range fresh {
			_ = q.Push(n)
		}
		t1 := time.Now()
		q.TakeBestN(8)
		takeTime += time.Since(t1)
		pushTime += t1.Sub(t0)
	}
	res.pushNs = float64(pushTime) / float64(rounds*8)
	res.takeNs = float64(takeTime) / float64(rounds)
}

// liveStream is the per-session traffic of a live workload.
func liveStream(sp *spec, topic string) (stream, error) {
	cfg, err := sp.policy.ToConfig(topic)
	if err != nil {
		return stream{}, err
	}
	st := stream{config: cfg, readN: sp.readN}
	// A session sees its topic's share of the offered rate; the closed
	// loop has no rate of its own, so it is probed at one arrival per
	// millisecond (virtual time only matters to expiry, which it lacks).
	st.gap = time.Millisecond
	if sp.openLoop() {
		st.gap = time.Duration(float64(time.Second) * float64(sp.topics) / sp.rate)
	}
	if !sp.online() {
		st.notifiesPerRead = int(sp.readEvery / st.gap)
	}
	return st, nil
}

// runLiveProbes runs every probe for a live workload, ops operations each
// (the heap-heavy ones fewer).
func runLiveProbes(sp *spec, seed uint64, ops, batchSize, sampledDepth int) (*probeResult, error) {
	res := &probeResult{}
	gen := newGenerator(sp, seed)
	if err := probePubsub(sp, gen, ops/2, res); err != nil {
		return nil, err
	}
	if err := probeCodec(sp, gen, ops, batchSize, res); err != nil {
		return nil, err
	}
	topic := gen.topics[0]
	st, err := liveStream(sp, topic)
	if err != nil {
		return nil, err
	}
	fill := func(n *msg.Notification, seq uint64, at time.Time) {
		gen.fill(n, seq, at)
		n.Topic = topic
	}
	if _, err := probeCore(st, fill, ops, res); err != nil {
		return nil, err
	}
	if !sp.online() {
		// Every unexpired notification above the threshold sits in a rank
		// queue on one side of the last hop or the other; probe at that
		// depth unless the proxy's own queues were sampled deeper.
		alive := sp.rate / float64(sp.topics) * sp.lifetime.Seconds() * (1 - sp.policy.Threshold/100)
		probeRankedq(max(sampledDepth, int(alive)), ops/5, res)
	}
	return res, nil
}

// runSimProbes probes core and rankedq under the simulator's traffic: 32
// arrivals and 2 reads a day under the unified preset, no sockets anywhere.
func runSimProbes(seed uint64, ops int) (*probeResult, error) {
	res := &probeResult{}
	st := stream{
		config:          core.UnifiedConfig(simTopic, 8),
		gap:             24 * time.Hour / 32,
		notifiesPerRead: 16,
		readN:           8,
	}
	fill := func(n *msg.Notification, seq uint64, at time.Time) {
		n.ID = msg.ID(strconv.FormatUint(seq, 10))
		n.Topic = simTopic
		n.Rank = float64(splitmix64(seed^seq)>>11) / (1 << 53) * 5
		n.Published = at
	}
	// One simulated year of arrivals, whatever the scale of the other probes.
	depth, err := probeCore(st, fill, min(ops, 32*365), res)
	if err != nil {
		return nil, err
	}
	probeRankedq(depth, ops/5, res)
	return res, nil
}
