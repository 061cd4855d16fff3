package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/wire"
)

// liveParams is what a caller chooses about a live run; everything else is
// fixed by the spec.
type liveParams struct {
	seed   uint64
	traced bool
	warm   time.Duration // discarded warm-up at the workload's load
	window time.Duration // measured window, cut into slices
	setups int           // how many times the topology is built for setup_s
	drain  time.Duration // how long owed deliveries may take after the window
	report []metricDef   // the metric list this process prints, for the deadline's result line
}

const slices = 10

// sink is one device's recorder. Only that device's goroutines write the
// histograms; delivered is read concurrently by the sampler.
type sink struct {
	delivered atomic.Int64 // notifications handed to the device (on-line) or its user (reads)

	lat    [slices]hist // due → handed over, by the slice the operation was due in
	latAll hist         // the whole window, for the ungated tails
	egress hist         // traced: t4-t2
	// stamped/unstamped count deliveries with / without a complete ledger row.
	stamped, unstamped int64

	reads, badReads int64
	readRTT         hist // Read call → return, whole window
	readAt          []time.Time
	readIDs         map[uint64]struct{}
}

// pubStat is one publisher goroutine's recorder.
type pubStat struct {
	lag      [slices]hist // open loop: PublishBatch called − due
	rtt      hist         // PublishBatch call → all acks
	batches  int64
	refused  int64
	accepted []int64 // per topic
}

// sample is one reading of the cumulative process counters at a slice edge.
type sample struct {
	at        time.Time
	cpu       time.Duration
	allocs    uint64
	delivered int64
	bytesIn   int64
	steal     int64
}

type liveRun struct {
	sp  *spec
	p   liveParams
	gen *generator
	top *topology
	led *ledger // nil unless traced

	base     time.Time // warm-up starts; notification 0 is due
	winStart time.Time
	winEnd   time.Time
	sliceLen time.Duration

	sinks []*sink
	pubs  []*pubStat
	sched *schedule   // open loop only
	stop  atomic.Bool // closed loop: stop publishing
	owed  atomic.Int64

	samples [slices + 1]sample
}

// liveOutcome is everything a live run measured; report.go turns it into the
// named metrics.
type liveOutcome struct {
	sp        *spec
	setupS    float64
	samples   [slices + 1]sample
	lat       [slices]*hist
	latAll    *hist
	lag       [slices]*hist
	rtt       *hist
	egress    *hist
	ingress   *hist
	readRTT   *hist
	batchMean float64

	attempted, failed int64
	published         int64
	owed, received    int64
	duplicates        int64
	readTotal         int64 // notifications handed to users by reads
	lossPct           float64
	stamped, total    int64

	depthP95    float64
	pool        burst.PoolStats
	outstanding int64
	gcPauseMs   float64
	numGC       uint32
	goroutines  int
	hostWrites  uint64
	hostBytes   int64
	devBytes    int64
	devFrames   int64
}

func (r *liveRun) sliceOf(t time.Time) int {
	d := t.Sub(r.winStart)
	if d < 0 {
		return -1
	}
	k := int(d / r.sliceLen)
	if k >= slices {
		return -1
	}
	return k
}

// runLive builds the topology (p.setups times, keeping the last), offers the
// spec's load for warm-up + window, waits for what is owed, checks every
// output, and tears everything down.
func runLive(sp *spec, p liveParams) (*liveOutcome, error) {
	gen := newGenerator(sp, p.seed)
	out := &liveOutcome{sp: sp}

	var top *topology
	var err error
	out.setupS, err = timeSetups(p.setups, func() error {
		if top != nil {
			top.close()
		}
		top, err = buildTopology(sp, gen.topics, p.traced)
		return err
	})
	if err != nil {
		return nil, err
	}

	r := &liveRun{sp: sp, p: p, gen: gen, top: top, sliceLen: p.window / slices}
	for range top.devs {
		r.sinks = append(r.sinks, &sink{})
	}
	defer top.close() // idempotent; the clean path closes earlier, below

	// Settle what set-up left behind so the window starts from the same
	// heap on every run.
	runtime.GC()
	poolBefore := burst.Notes.Stats()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	r.base = time.Now().Add(10 * time.Millisecond)
	r.winStart = r.base.Add(p.warm)
	r.winEnd = r.winStart.Add(p.window)

	if p.traced {
		r.led = newLedger(r.base)
		for _, topic := range gen.topics {
			sub := msg.Subscription{Topic: topic, Subscriber: tapName}
			if err := top.broker.Subscribe(sub, tap{r.led}); err != nil {
				return nil, fmt.Errorf("tap: %w", err)
			}
		}
	}
	online := sp.online()
	if online {
		for i, dev := range top.devs {
			dev.SetOnPush(r.onPush(r.sinks[i]))
		}
	}

	// The hard cap: a hang anywhere (including teardown) becomes a counted
	// failure with a goroutine dump instead of a stuck run.
	cap := p.warm + p.window + p.drain + 20*time.Second
	watchdog := armDeadline(cap, p.report, func() (int64, int64) {
		owed := r.owed.Load()
		return owed, owed - r.deliveredTotal()
	})
	defer watchdog.Stop()

	var wg sync.WaitGroup
	var depth depthSampler
	if sp.drainEvery > 0 {
		for i := range top.devs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.drainer(i)
			}(i)
		}
	}
	if !online {
		for i := range top.devs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.reader(i)
			}(i)
		}
		if p.traced {
			depth.start(r)
		}
	}
	if sp.openLoop() {
		sched := newSchedule(r.base, sp.rate, p.warm+p.window)
		r.sched = sched
		for _, pub := range top.pubs {
			ps := &pubStat{accepted: make([]int64, sp.topics)}
			r.pubs = append(r.pubs, ps)
			wg.Add(1)
			go func(pub *wire.BrokerClient) {
				defer wg.Done()
				r.publishOpen(pub, ps, sched)
			}(pub)
		}
	} else {
		var next atomic.Uint64
		for _, pub := range top.pubs {
			for w := 0; w < sp.window; w++ {
				ps := &pubStat{accepted: make([]int64, sp.topics)}
				r.pubs = append(r.pubs, ps)
				wg.Add(1)
				go func(pub *wire.BrokerClient) {
					defer wg.Done()
					r.publishClosed(pub, ps, &next)
				}(pub)
			}
		}
	}

	r.sampleSlices()
	r.stop.Store(true)
	out.goroutines = runtime.NumGoroutine()
	wg.Wait()
	depth.stopAndWait()

	// Drain: on-line policies owe every accepted publish to every
	// subscriber of its topic.
	deadline := time.Now().Add(p.drain)
	if online {
		for r.deliveredTotal() < r.owed.Load() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	poolAfter := burst.Notes.Stats()

	r.collect(out)
	out.depthP95 = depth.p95()
	out.pool = burst.PoolStats{
		Gets:   poolAfter.Gets - poolBefore.Gets,
		Puts:   poolAfter.Puts - poolBefore.Puts,
		Misses: poolAfter.Misses - poolBefore.Misses,
	}
	out.gcPauseMs = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6
	out.numGC = memAfter.NumGC - memBefore.NumGC

	top.close()
	// Pool residue is sampled only after teardown: until the egress rings
	// and wheels have drained, checked-out notes are in flight, not leaked.
	out.outstanding = settledOutstanding(poolBefore.Outstanding(), 2*time.Second)
	if out.outstanding != 0 {
		out.failed += abs64(out.outstanding)
	}
	return out, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// settledOutstanding waits for the notification pool's checked-out count to
// return to what it was before the run and reports the difference. (The
// baseline is not zero in a process that has also run the simulator, whose
// proxies keep their notifications by design.)
func settledOutstanding(before int64, grace time.Duration) int64 {
	deadline := time.Now().Add(grace)
	for {
		o := burst.Notes.Stats().Outstanding() - before
		if o == 0 || time.Now().After(deadline) {
			return o
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *liveRun) deliveredTotal() int64 {
	var n int64
	for _, s := range r.sinks {
		n += s.delivered.Load()
	}
	return n
}

// onPush is an on-line device's observer: t4. It runs on the device
// connection's read goroutine, once per first-time delivery.
func (r *liveRun) onPush(s *sink) func(*msg.Notification) {
	return func(n *msg.Notification) {
		now := time.Now()
		// The count is published last: whoever has seen it may read the
		// histograms it covers.
		defer s.delivered.Add(1)
		if k := r.sliceOf(n.Published); k >= 0 {
			d := int64(now.Sub(n.Published))
			s.lat[k].add(d)
			s.latAll.add(d)
		}
		if r.led == nil {
			return
		}
		seq, ok := seqOf(n.ID)
		if !ok {
			s.unstamped++
			return
		}
		st := r.led.lookup(seq)
		if st == nil || st.t1.Load() == 0 || st.t2.Load() == 0 {
			s.unstamped++
			return
		}
		s.stamped++
		s.egress.add(r.led.since(now) - st.t2.Load())
	}
}

// sampleSlices sleeps from slice edge to slice edge through the measured
// window, reading the cumulative counters at each.
func (r *liveRun) sampleSlices() {
	for k := 0; k <= slices; k++ {
		time.Sleep(time.Until(r.winStart.Add(time.Duration(k) * r.sliceLen)))
		r.samples[k] = sample{
			at:        time.Now(),
			cpu:       cpuTime(),
			allocs:    heapAllocs(),
			delivered: r.deliveredTotal(),
			bytesIn:   r.top.devWire.BytesIn.Value(),
			steal:     stealTicks(),
		}
	}
}

// publishOpen is one open-loop publisher connection: it claims whatever the
// schedule says is due (at most one batch), stamps it, and publishes it.
func (r *liveRun) publishOpen(pub *wire.BrokerClient, ps *pubStat, sched *schedule) {
	batch := make([]*msg.Notification, 0, r.sp.batch)
	for {
		now := time.Now()
		first, n, next, done := sched.claim(now, r.sp.batch)
		if done {
			return
		}
		if n == 0 {
			sleepUntil(next)
			continue
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			seq := first + uint64(i)
			due := sched.due(seq)
			note := burst.Notes.Get()
			r.gen.fill(note, seq, due)
			batch = append(batch, note)
			if k := r.sliceOf(due); k >= 0 {
				ps.lag[k].add(int64(now.Sub(due)))
			}
		}
		r.publish(pub, ps, batch, first, now)
	}
}

// publishClosed is one slot of a closed-loop connection's window: a batch is
// built and published the moment the previous one is acknowledged.
func (r *liveRun) publishClosed(pub *wire.BrokerClient, ps *pubStat, next *atomic.Uint64) {
	batch := make([]*msg.Notification, 0, r.sp.batch)
	time.Sleep(time.Until(r.base))
	for !r.stop.Load() {
		n := uint64(r.sp.batch)
		first := next.Add(n) - n
		now := time.Now()
		batch = batch[:0]
		for i := uint64(0); i < n; i++ {
			note := burst.Notes.Get()
			r.gen.fill(note, first+i, now)
			batch = append(batch, note)
		}
		r.publish(pub, ps, batch, first, now)
	}
}

// publish stamps t1, sends one batch, and books the acknowledgements.
func (r *liveRun) publish(pub *wire.BrokerClient, ps *pubStat, batch []*msg.Notification, first uint64, t1 time.Time) {
	if r.led != nil {
		at := r.led.since(t1)
		for i := range batch {
			if st := r.led.slot(first + uint64(i)); st != nil {
				st.t1.Store(at)
			}
		}
	}
	// Owed is booked before the send so a delivery can never outrun it.
	r.owed.Add(int64(len(batch) * r.sp.fanout()))
	errs := pub.PublishBatch(batch)
	if r.sliceOf(t1) >= 0 {
		ps.rtt.add(int64(time.Since(t1)))
	}
	ps.batches++
	for i, err := range errs {
		if err != nil {
			ps.refused++
			r.owed.Add(-int64(r.sp.fanout()))
		} else {
			ps.accepted[r.gen.topicOf(first+uint64(i))]++
		}
		burst.Notes.Put(batch[i])
	}
}

// drainer is one on-line device's user: every drainEvery it reads everything
// that has arrived. The phase is seeded so the devices do not read in lockstep.
func (r *liveRun) drainer(i int) {
	s := r.sinks[i]
	topic := r.gen.topics[i%r.sp.topics]
	phase := time.Duration(splitmix64(r.gen.seed^uint64(i+1)) % uint64(r.sp.drainEvery))
	time.Sleep(time.Until(r.base.Add(phase)))
	for !r.stop.Load() {
		s.reads++
		if _, err := r.top.devs[i].Read(topic, 0); err != nil {
			s.badReads++
		}
		time.Sleep(r.sp.drainEvery)
	}
}

// reader is one on-demand device's user: Read(topic, readN) every readEvery,
// each timed from when it was due. The phase is seeded so the devices do not
// read in lockstep.
func (r *liveRun) reader(i int) {
	s := r.sinks[i]
	s.readIDs = make(map[uint64]struct{})
	dev := r.top.devs[i]
	topic := r.gen.topics[i%r.sp.topics]
	phase := time.Duration(splitmix64(r.gen.seed^uint64(i+1)) % uint64(r.sp.readEvery))
	for k := 0; ; k++ {
		due := r.base.Add(phase + time.Duration(k)*r.sp.readEvery)
		if !due.Before(r.winEnd) {
			return
		}
		sleepUntil(due)
		called := time.Now()
		batch, err := dev.Read(topic, r.sp.readN)
		done := time.Now()
		s.reads++
		bad := err != nil
		for j, n := range batch {
			// Judged against the instant the read was issued, so a
			// notification that expires while the call is in flight
			// is not held against it.
			if !n.Expires.IsZero() && n.Expires.Before(called) {
				bad = true
			}
			if j > 0 && batch[j-1].Rank < n.Rank {
				bad = true
			}
			if seq, ok := seqOf(n.ID); ok {
				s.readIDs[seq] = struct{}{}
			}
		}
		if bad {
			s.badReads++
		}
		s.readAt = append(s.readAt, called)
		s.delivered.Add(int64(len(batch)))
		if slot := r.sliceOf(due); slot >= 0 {
			d := int64(done.Sub(due))
			s.lat[slot].add(d)
			s.latAll.add(d)
			s.readRTT.add(int64(done.Sub(called)))
		}
	}
}

// collect folds the per-goroutine recorders into the outcome and runs the
// output oracle. Every recording goroutine has stopped by now.
func (r *liveRun) collect(out *liveOutcome) {
	out.samples = r.samples
	online := r.sp.online()

	for k := 0; k < slices; k++ {
		out.lat[k], out.lag[k] = &hist{}, &hist{}
		for _, s := range r.sinks {
			out.lat[k].merge(&s.lat[k])
		}
		for _, ps := range r.pubs {
			out.lag[k].merge(&ps.lag[k])
		}
	}
	out.latAll, out.egress, out.readRTT, out.rtt = &hist{}, &hist{}, &hist{}, &hist{}
	var reads, badReads int64
	for _, s := range r.sinks {
		out.latAll.merge(&s.latAll)
		out.egress.merge(&s.egress)
		out.readRTT.merge(&s.readRTT)
		out.stamped += s.stamped
		out.total += s.stamped + s.unstamped
		reads += s.reads
		badReads += s.badReads
	}
	var batches, refused int64
	accepted := make([]int64, r.sp.topics)
	for _, ps := range r.pubs {
		out.rtt.merge(&ps.rtt)
		batches += ps.batches
		refused += ps.refused
		for t, n := range ps.accepted {
			accepted[t] += n
			out.published += n
		}
	}
	if batches > 0 {
		out.batchMean = float64(out.published+refused) / float64(batches)
	}
	if r.led != nil {
		out.ingress = r.led.ingress()
	} else {
		out.ingress = &hist{}
	}

	// The oracle. attempted = publishes + deliveries owed + reads.
	var missing int64
	for i, dev := range r.top.devs {
		received, updates, _ := dev.Stats()
		out.received += int64(received)
		out.duplicates += int64(updates)
		if online {
			owed := accepted[i%r.sp.topics]
			out.owed += owed
			if d := owed - int64(received); d > 0 {
				missing += d
			}
		}
	}
	if !online {
		out.readTotal = r.deliveredTotal()
		out.lossPct = r.lossAgainstOnline()
	}
	out.attempted = out.published + refused + out.owed + reads
	out.failed = refused + missing + out.duplicates + badReads
	if r.led != nil && online && out.total > 0 && float64(out.stamped) < 0.999*float64(out.total) {
		out.failed += out.total - out.stamped
	}
	if r.top.hostWire != nil {
		out.hostWrites = r.top.hostWire.FlushFrames.Count()
		out.hostBytes = r.top.hostWire.BytesOut.Value()
	}
	out.devBytes = r.top.devWire.BytesIn.Value()
	out.devFrames = r.top.devWire.FramesIn.Value()
}
