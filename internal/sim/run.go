package sim

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/dist"
	"lasthop/internal/link"
	"lasthop/internal/metrics"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
	"lasthop/internal/stats"
	"lasthop/internal/trace"
)

// Start is the fixed virtual start instant of every simulation.
var Start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TopicName is the single simulated topic.
const TopicName = "sim/topic"

const publisherName = "sim/publisher"

// Result summarizes one policy run over a scenario.
type Result struct {
	// Policy names the forwarding policy that ran.
	Policy core.PolicyKind
	// Arrivals counts published notifications.
	Arrivals int
	// Forwarded counts distinct notifications transferred to the device.
	Forwarded int
	// ReadSet identifies the notifications the user actually read.
	ReadSet msg.IDSet
	// ReadCount is len(ReadSet).
	ReadCount int
	// WastePct is the percentage of forwarded messages never read
	// (§3.1).
	WastePct float64
	// Device, Proxy, and Link expose the component accounting.
	Device device.Stats
	Proxy  core.Stats
	Link   link.Stats
}

// Comparison pairs a policy run with the on-line baseline run of the same
// scenario and derives the paper's two inefficiency metrics.
type Comparison struct {
	Baseline Result
	Policy   Result
	// WastePct is the policy run's waste.
	WastePct float64
	// LossPct is the percentage of baseline-read messages the policy
	// failed to deliver (§3.1).
	LossPct float64
}

// forwardToDevice adapts the device as the proxy's forwarder; the pointer
// is set after both parties exist (they reference each other).
type forwardToDevice struct {
	dev   *device.Device
	sched *simtime.Virtual
	tr    trace.Tracer
}

// ForwardBatch transfers a burst one notification at a time, as the device
// accounts it.
func (f *forwardToDevice) ForwardBatch(batch []*msg.Notification) error {
	return core.ForwardEach(batch, f.receive)
}

func (f *forwardToDevice) receive(n *msg.Notification) error {
	err := f.dev.Receive(n)
	if err == nil && f.tr != nil {
		trace.Record(f.tr, trace.Event{
			At: f.sched.Now(), Kind: trace.KindForward,
			Topic: n.Topic, ID: n.ID, Rank: n.Rank,
		})
	}
	return err
}

// Run replays a scenario under the given forwarding policy. The policy
// config's Name, ReadSize, and RankThreshold are overridden from the
// scenario's subscriber parameters.
func Run(sc Scenario, policy core.TopicConfig) (Result, error) {
	return RunTraced(sc, policy, nil)
}

// RunTraced is Run with an event tracer recording the run's timeline
// (arrivals, transfers, reads, retractions, link transitions). A nil
// tracer records nothing. A scenario whose streams are out of order,
// outside its horizon or ranked outside [msg.MinRank, msg.MaxRank] is
// rejected before anything runs.
func RunTraced(sc Scenario, policy core.TopicConfig, tr trace.Tracer) (Result, error) {
	if err := sc.validateShape(); err != nil {
		return Result{}, fmt.Errorf("run: %w", err)
	}
	cfg := sc.Cfg
	sched := simtime.NewVirtual(Start)
	lnk := link.New(sched, !dist.DownAt(sc.Outages, 0))
	fwd := &forwardToDevice{sched: sched, tr: tr}
	proxy := core.New(sched, fwd)
	dev := device.New(sched, lnk, proxy, device.Config{
		Capacity:        cfg.DeviceCapacity,
		BatteryCapacity: cfg.DeviceBattery,
		RankThreshold:   cfg.RankThreshold,
	})
	fwd.dev = dev
	proxy.SetNetwork(lnk.Up())
	lnk.OnChange(func(up bool) {
		if tr != nil {
			kind := trace.KindLinkDown
			if up {
				kind = trace.KindLinkUp
			}
			trace.Record(tr, trace.Event{At: sched.Now(), Kind: kind})
		}
		proxy.SetNetwork(up)
	})

	policy.Name = TopicName
	policy.ReadSize = cfg.Max
	policy.RankThreshold = cfg.RankThreshold
	if err := proxy.AddTopic(policy); err != nil {
		return Result{}, fmt.Errorf("run: %w", err)
	}

	// Replay the scenario in one pass over its sorted streams; no input
	// is a scheduled event. At each input instant RunBefore first runs
	// the timers due strictly before it, then the inputs fire in a fixed
	// order: retractions (each strictly after its own arrival, so of an
	// earlier arrival than any arriving now), arrivals, reads, and outage
	// edges interval by interval. Timers due at the instant run after
	// them. The run stops one nanosecond before the horizon so an outage
	// ending exactly at the boundary (the 100% downtime case) cannot
	// flush the queues in a final instant the paper's year never contains.
	// The proxy keeps each note it is handed and revises its rank in
	// place, so every arrival gets its own element of one slab per run.
	ids := arrivalIDs(len(sc.Arrivals))
	retracts := retractionOrder(sc.Arrivals)
	notes := make([]msg.Notification, len(sc.Arrivals))
	var ai, ri, rdi, ei int
	var batch []*msg.Notification // every read's, reused
	for {
		at := cfg.Horizon
		if ai < len(sc.Arrivals) {
			at = min(at, sc.Arrivals[ai].At)
		}
		if ri < len(retracts) {
			at = min(at, sc.Arrivals[retracts[ri]].RetractAt)
		}
		if rdi < len(sc.Reads) {
			at = min(at, sc.Reads[rdi])
		}
		if ei < 2*len(sc.Outages) {
			at = min(at, edgeAt(sc.Outages, ei))
		}
		if at >= cfg.Horizon {
			break
		}
		sched.RunBefore(Start.Add(at))
		now := sched.Now()
		for ; ri < len(retracts) && sc.Arrivals[retracts[ri]].RetractAt == at; ri++ {
			j := retracts[ri]
			update := msg.RankUpdate{Topic: TopicName, ID: ids[j], NewRank: sc.Arrivals[j].RetractTo}
			trace.Record(tr, trace.Event{
				At: now, Kind: trace.KindRetract,
				Topic: TopicName, ID: update.ID, Rank: update.NewRank,
			})
			proxy.ApplyRankUpdate(update)
		}
		for ; ai < len(sc.Arrivals) && sc.Arrivals[ai].At == at; ai++ {
			a, n := &sc.Arrivals[ai], &notes[ai]
			*n = msg.Notification{ID: ids[ai], Topic: TopicName, Publisher: publisherName, Rank: a.Rank, Published: now}
			if a.Lifetime > 0 {
				n.Expires = now.Add(a.Lifetime)
			}
			trace.Record(tr, trace.Event{
				At: now, Kind: trace.KindArrival,
				Topic: TopicName, ID: n.ID, Rank: n.Rank,
			})
			proxy.Notify(n)
		}
		for ; rdi < len(sc.Reads) && sc.Reads[rdi] == at; rdi++ {
			var err error
			batch, err = dev.AppendRead(batch[:0], TopicName, cfg.Max)
			if err != nil && !errors.Is(err, device.ErrBatteryDead) {
				return Result{}, fmt.Errorf("run: %w", err)
			}
			trace.Record(tr, trace.Event{
				At: now, Kind: trace.KindRead,
				Topic: TopicName, Count: len(batch),
			})
		}
		for ; ei < 2*len(sc.Outages) && edgeAt(sc.Outages, ei) == at; ei++ {
			lnk.SetUp(ei%2 == 1)
		}
	}
	sched.RunUntil(Start.Add(cfg.Horizon - time.Nanosecond))

	ds := dev.Stats()
	res := Result{
		Policy:    policy.Policy,
		Arrivals:  len(sc.Arrivals),
		Forwarded: ds.Received,
		ReadSet:   dev.ReadSet(TopicName),
		ReadCount: ds.ReadCount,
		Device:    ds,
		Proxy:     proxy.Stats(),
		Link:      lnk.Stats(),
	}
	res.WastePct = metrics.WastePct(res.Forwarded, res.ReadCount)

	acct := metrics.Accounting{
		Published:      res.Arrivals,
		Forwarded:      ds.Received,
		Read:           ds.ReadCount,
		ExpiredUnread:  ds.ExpiredUnread,
		EvictedStorage: ds.EvictedStorage,
		RankDropped:    ds.RankDropsApplied,
		ResidualQueue:  dev.QueueLen(TopicName),
	}
	if err := acct.Check(); err != nil {
		return res, fmt.Errorf("run: accounting violation: %w", err)
	}
	return res, nil
}

// arrivalIDs names arrival i "e<i>"; every name is a substring of one
// string.
func arrivalIDs(n int) []msg.ID {
	var buf []byte
	for i := range n {
		buf = strconv.AppendInt(append(buf, 'e'), int64(i), 10)
	}
	rest := string(buf)
	ids := make([]msg.ID, n)
	var digits [20]byte
	for i := range ids {
		w := 1 + len(strconv.AppendInt(digits[:0], int64(i), 10))
		ids[i], rest = msg.ID(rest[:w]), rest[w:]
	}
	return ids
}

// retractionOrder lists the indexes of the retracted arrivals by
// retraction instant, ties by arrival index.
func retractionOrder(arrivals []Arrival) []int {
	var order []int
	for i, a := range arrivals {
		if a.RetractAt > 0 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(i, j int) int {
		return cmp.Compare(arrivals[i].RetractAt, arrivals[j].RetractAt)
	})
	return order
}

// edgeAt is the instant of outage edge k: interval k/2's start for even
// k, its end for odd k.
func edgeAt(outages []dist.Interval, k int) time.Duration {
	if k%2 == 0 {
		return outages[k/2].Start
	}
	return outages[k/2].End
}

// Compare runs the on-line baseline and the given policy over the same
// scenario and derives waste and loss. It is CompareMany with one policy,
// so the two years run concurrently.
func Compare(sc Scenario, policy core.TopicConfig) (Comparison, error) {
	cmps, err := CompareMany(sc, policy)
	if err != nil {
		return Comparison{}, err
	}
	return cmps[0], nil
}

// CompareMany runs the on-line baseline once and every policy over the
// same scenario and returns one comparison per policy, in order. The
// years share no state and run concurrently, at most GOMAXPROCS at once,
// one of them on the caller's goroutine. Every comparison returned holds
// the same baseline Result, whose ReadSet is one set shared by all of
// them: it is read-only. A baseline error is returned before any policy's.
func CompareMany(sc Scenario, policies ...core.TopicConfig) ([]Comparison, error) {
	results := make([]Result, 1+len(policies))
	errs := make([]error, len(results))
	inParallel(len(results), func(i int) {
		policy := core.OnlineConfig(TopicName)
		if i > 0 {
			policy = policies[i-1]
		}
		results[i], errs[i] = Run(sc, policy)
	})
	if errs[0] != nil {
		return nil, fmt.Errorf("baseline: %w", errs[0])
	}
	base := results[0]
	cmps := make([]Comparison, len(policies))
	for i, pol := range results[1:] {
		if errs[1+i] != nil {
			return nil, fmt.Errorf("policy: %w", errs[1+i])
		}
		cmps[i] = Comparison{
			Baseline: base,
			Policy:   pol,
			WastePct: pol.WastePct,
			LossPct:  metrics.LossPct(base.ReadSet, pol.ReadSet),
		}
	}
	return cmps, nil
}

// inParallel calls year(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, the caller's among them, and returns once every call has
// returned. A panic in any call is re-raised on the caller's goroutine,
// with the panicking goroutine's stack, after the other goroutines have
// finished.
func inParallel(n int, year func(i int)) {
	workers := max(1, min(n, runtime.GOMAXPROCS(0)))
	panics := make([]any, workers)
	var next atomic.Int64
	work := func(w int) {
		defer func() {
			if p := recover(); p != nil {
				panics[w] = fmt.Sprintf("%v\n\n%s", p, debug.Stack())
			}
		}()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			year(int(i))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// replicate generates one scenario per replication (at least one) from
// cfg, replication r with seed cfg.Seed + r·0x9e3779b9, compares the
// policies over it with CompareMany, and hands add each replication's
// comparisons in replication order.
func replicate(cfg Config, policies []core.TopicConfig, replications int, add func(r int, cmps []Comparison)) error {
	for r := range max(replications, 1) {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(r)*0x9e3779b9
		sc, err := NewScenario(runCfg)
		if err != nil {
			return err
		}
		cmps, err := CompareMany(sc, policies...)
		if err != nil {
			return err
		}
		add(r, cmps)
	}
	return nil
}

// CompareStats repeats Compare over replications seeds derived from
// cfg.Seed and returns full summary statistics of waste and loss, for
// reporting means with dispersion, and the first comparison for
// inspection.
func CompareStats(cfg Config, policy core.TopicConfig, replications int) (wasteStats, lossStats stats.Running, first Comparison, err error) {
	err = replicate(cfg, []core.TopicConfig{policy}, replications, func(r int, cmps []Comparison) {
		if r == 0 {
			first = cmps[0]
		}
		wasteStats.Add(cmps[0].WastePct)
		lossStats.Add(cmps[0].LossPct)
	})
	return wasteStats, lossStats, first, err
}

// CompareAveraged repeats Compare over replications seeds derived from
// cfg.Seed and returns the mean waste and loss, reducing the variance of
// single-scenario estimates. The first comparison is returned for
// inspection.
func CompareAveraged(cfg Config, policy core.TopicConfig, replications int) (waste, loss float64, first Comparison, err error) {
	wastes, losses, firsts, err := CompareAveragedMany(cfg, []core.TopicConfig{policy}, replications)
	if err != nil {
		return 0, 0, Comparison{}, err
	}
	return wastes[0], losses[0], firsts[0], nil
}

// CompareAveragedMany is CompareAveraged for several policies over the
// same scenarios: each replication's scenario is generated once and its
// baseline runs once (CompareMany). waste[i], loss[i] and first[i] are
// policy i's; each mean sums the replications in order, then divides.
func CompareAveragedMany(cfg Config, policies []core.TopicConfig, replications int) (waste, loss []float64, first []Comparison, err error) {
	waste, loss = make([]float64, len(policies)), make([]float64, len(policies))
	err = replicate(cfg, policies, replications, func(r int, cmps []Comparison) {
		if r == 0 {
			first = cmps
		}
		for i, c := range cmps {
			waste[i] += c.WastePct
			loss[i] += c.LossPct
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	n := float64(max(replications, 1))
	for i := range waste {
		waste[i] /= n
		loss[i] /= n
	}
	return waste, loss, first, nil
}
