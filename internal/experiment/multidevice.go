package experiment

import (
	"fmt"
	"strconv"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/dist"
	"lasthop/internal/link"
	"lasthop/internal/metrics"
	"lasthop/internal/msg"
	"lasthop/internal/multidev"
	"lasthop/internal/pubsub"
	"lasthop/internal/sim"
	"lasthop/internal/simtime"
)

// ExtensionMultiDevice measures the paper's first future-work item (§4):
// cooperation among the user's devices. The user always reads on the
// phone, whose last hop is down the given fraction of the time; companion
// devices (laptop, tablet, ...) have independent outage schedules and
// share their caches over an ad-hoc network.
//
// The workload uses short-lived notifications (8-hour mean), the case
// where a lone device genuinely loses: whatever expires during one of its
// outages is gone (§3.3 calls these losses "harder to minimize"). A
// companion whose link happened to be up caches those messages and hands
// them over at the next read. The y axis is loss against the *ideal*
// reader — a single device with a perfect network — because messages that
// expire during a lone phone's outage are unreachable under any policy on
// that phone, so only this reference can expose what cooperation recovers.
func ExtensionMultiDevice(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "extension-multi-device",
		Title:  "Multi-device cooperation: loss vs number of cooperating devices (8h lifetimes)",
		XLabel: "Devices in the group",
		YLabel: "Percent of Lost Messages (vs a perfect network)",
	}
	outages := []float64{0.5, 0.9}
	groupSizes := []int{1, 2, 3, 4}
	for _, frac := range outages {
		s := Series{Label: fmt.Sprintf("outage %g", frac)}
		for _, k := range groupSizes {
			lossSum := 0.0
			for r := 0; r < opts.Replications; r++ {
				cfg := opts.baseConfig()
				cfg.Seed += uint64(r) * 0x9e3779b9
				cfg.ReadsPerDay = 2
				cfg.Max = 8
				cfg.Outage.Fraction = frac
				cfg.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 8 * time.Hour}
				loss, err := multiDeviceLoss(cfg, k)
				if err != nil {
					return Figure{}, fmt.Errorf("multi-device (outage=%g, k=%d): %w", frac, k, err)
				}
				lossSum += loss
			}
			s.Points = append(s.Points, Point{X: float64(k), Y: lossSum / float64(opts.Replications)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// multiDeviceLoss runs the group scenario once: the reference is a single
// device under on-line forwarding with a perfect network (the ideal
// reader); the measured run is a k-device group under buffer prefetching
// with the user reading on the phone.
func multiDeviceLoss(cfg sim.Config, k int) (float64, error) {
	ideal := cfg
	ideal.Outage.Fraction = 0
	baseline, err := runGroup(ideal, 1, core.OnlineConfig(sim.TopicName))
	if err != nil {
		return 0, err
	}
	group, err := runGroup(cfg, k, core.BufferConfig(sim.TopicName, cfg.Max, 32))
	if err != nil {
		return 0, err
	}
	return metrics.LossPct(baseline, group), nil
}

// runGroup drives one scenario over a k-device group and returns the set
// of notifications the user read.
func runGroup(cfg sim.Config, k int, policy core.TopicConfig) (msg.IDSet, error) {
	base := cfg
	base.Outage.Fraction = 0 // per-device outages are generated below
	sc, err := sim.NewScenario(base)
	if err != nil {
		return nil, err
	}
	sched := simtime.NewVirtual(sim.Start)
	broker := pubsub.NewBroker("group/broker")
	if err := broker.Advertise(sim.TopicName, "group/pub"); err != nil {
		return nil, err
	}

	root := dist.New(cfg.Seed ^ 0x5bd1e995)
	members := make([]multidev.Member, 0, k)
	for i := 0; i < k; i++ {
		name := "dev" + strconv.Itoa(i)
		outages := dist.OutageSchedule(root.Split("outage/"+name), cfg.Outage, sc.Cfg.Horizon)
		lnk := link.New(sched, !dist.DownAt(outages, 0))
		fwd := &groupForwarder{}
		proxy := core.New(sched, fwd)
		dev := device.New(sched, lnk, proxy, device.Config{RankThreshold: cfg.RankThreshold})
		fwd.dev = dev
		proxy.SetNetwork(lnk.Up())
		lnk.OnChange(proxy.SetNetwork)
		topicCfg := policy
		topicCfg.Name = sim.TopicName
		topicCfg.ReadSize = cfg.Max
		topicCfg.RankThreshold = cfg.RankThreshold
		if err := proxy.AddTopic(topicCfg); err != nil {
			return nil, err
		}
		sub := msg.Subscription{
			Topic:      sim.TopicName,
			Subscriber: name,
			Options:    msg.SubscriptionOptions{Max: cfg.Max, Threshold: cfg.RankThreshold},
		}
		if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
			return nil, err
		}
		link.Drive(sched, lnk, outages)
		members = append(members, multidev.Member{Name: name, Device: dev, Link: lnk})
	}
	group, err := multidev.NewGroup(members...)
	if err != nil {
		return nil, err
	}

	var harnessErr error
	fail := func(err error) {
		if harnessErr == nil && err != nil {
			harnessErr = err
		}
	}
	for i, a := range sc.Arrivals {
		a := a
		id := msg.ID("e" + strconv.Itoa(i))
		published := sim.Start.Add(a.At)
		n := &msg.Notification{
			ID: id, Topic: sim.TopicName, Publisher: "group/pub",
			Rank: a.Rank, Published: published,
		}
		if a.Lifetime > 0 {
			n.Expires = published.Add(a.Lifetime)
		}
		sched.Schedule(a.At, func() { fail(broker.Publish(n)) })
	}
	for _, at := range sc.Reads {
		sched.Schedule(at, func() {
			_, err := group.Read("dev0", sim.TopicName, cfg.Max)
			fail(err)
		})
	}
	sched.RunUntil(sim.Start.Add(sc.Cfg.Horizon - 1))
	if harnessErr != nil {
		return nil, harnessErr
	}
	return group.ReadUnion(sim.TopicName), nil
}

type groupForwarder struct {
	dev *device.Device
}

func (f *groupForwarder) ForwardBatch(b []*msg.Notification) error {
	return core.ForwardEach(b, f.dev.Receive)
}
