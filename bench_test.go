package lasthop_test

// The benchmark harness: one benchmark per figure of the paper's
// evaluation (each iteration regenerates the complete parameter sweep at a
// reduced horizon; set -lasthop.days=365 for the paper's full virtual
// year), plus ablation benches for the design choices DESIGN.md calls out
// and micro-benchmarks of the hot paths.

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"lasthop"
	"lasthop/internal/dist"
	"lasthop/internal/journal"
	"lasthop/internal/msg"
	"lasthop/internal/sim"
)

var benchDays = flag.Int("lasthop.days", 10, "simulated days per figure-benchmark run")

func benchOpts() lasthop.ExperimentOptions {
	return lasthop.ExperimentOptions{
		Seed:    1,
		Horizon: time.Duration(*benchDays) * dist.Day,
	}
}

// reportFigure attaches headline numbers of a figure to the benchmark
// output so shape changes are visible in bench logs.
func reportFigure(b *testing.B, fig lasthop.ExperimentFigure) {
	b.Helper()
	if len(fig.Series) == 0 {
		b.Fatal("figure has no series")
	}
	s := fig.Series[len(fig.Series)-1]
	if len(s.Points) == 0 {
		b.Fatal("series has no points")
	}
	b.ReportMetric(s.Points[0].Y, "firstY%")
	b.ReportMetric(s.Points[len(s.Points)-1].Y, "lastY%")
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.Figure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.Figure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loss, waste, err := lasthop.Figure3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, loss)
			_ = waste
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		waste, loss, err := lasthop.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, waste)
			_ = loss
		}
	}
}

func BenchmarkAblationRateVsBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loss, _, err := lasthop.AblationRateVsBuffer(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, loss)
		}
	}
}

func BenchmarkAblationDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.AblationDelay(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkAblationAutoLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.AblationAutoLimit(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

func BenchmarkExtensionMultiDevice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lasthop.ExtensionMultiDevice(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig)
		}
	}
}

// BenchmarkSimYear measures one full-year paired comparison (the unit of
// work behind every figure point at the paper's horizon).
func BenchmarkSimYear(b *testing.B) {
	cfg := lasthop.SimConfig{Seed: 1, EventsPerDay: 32, ReadsPerDay: 2, Max: 8}
	cfg.Outage.Fraction = 0.5
	sc, err := lasthop.NewScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lasthop.Compare(sc, lasthop.BufferConfig(sim.TopicName, 8, 32)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyNotify measures the proxy's NOTIFICATION handler on a
// buffer-policy topic with a full prefetch queue.
func BenchmarkProxyNotify(b *testing.B) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := lasthop.NewVirtualClock(start)
	proxy := lasthop.NewProxy(clock, nopForwarder{})
	proxy.SetNetwork(false) // force queueing
	if err := proxy.AddTopic(lasthop.BufferConfig("t", 8, 32)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxy.Notify(&lasthop.Notification{
			ID:        lasthop.ID(fmt.Sprintf("n%d", i)),
			Topic:     "t",
			Rank:      float64(i % 100),
			Published: start,
		})
	}
}

type nopForwarder struct{}

func (nopForwarder) ForwardBatch([]*lasthop.Notification) error { return nil }

// BenchmarkProxyRead measures the READ handler against a large backlog.
func BenchmarkProxyRead(b *testing.B) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := lasthop.NewVirtualClock(start)
	proxy := lasthop.NewProxy(clock, nopForwarder{})
	if err := proxy.AddTopic(lasthop.OnDemandConfig("t", 8)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		proxy.Notify(&lasthop.Notification{
			ID:        lasthop.ID(fmt.Sprintf("n%d", i)),
			Topic:     "t",
			Rank:      float64(i % 997),
			Published: start,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proxy.Read(lasthop.ReadRequest{Topic: "t", N: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerFanout measures publishing to a broker with 100 local
// subscribers.
func BenchmarkBrokerFanout(b *testing.B) {
	broker := lasthop.NewBroker("bench")
	if err := broker.Advertise("t", "pub"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s := lasthop.Subscription{
			Topic:      "t",
			Subscriber: fmt.Sprintf("sub%d", i),
			Options:    lasthop.SubscriptionOptions{Max: 8},
		}
		if err := broker.Subscribe(s, discardSubscriber{}); err != nil {
			b.Fatal(err)
		}
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := &lasthop.Notification{
			ID: lasthop.ID(fmt.Sprintf("n%d", i)), Topic: "t",
			Rank: 1, Published: start,
		}
		if err := broker.Publish(n); err != nil {
			b.Fatal(err)
		}
	}
}

type discardSubscriber struct{}

func (discardSubscriber) Deliver(*msg.Notification)        {}
func (discardSubscriber) DeliverRankUpdate(msg.RankUpdate) {}

// BenchmarkProxyManyTopics measures one proxy multiplexing 1000 topics
// (the paper's closing "scalability of proxies is of interest, too").
func BenchmarkProxyManyTopics(b *testing.B) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := lasthop.NewVirtualClock(start)
	proxy := lasthop.NewProxy(clock, nopForwarder{})
	const topics = 1000
	for i := 0; i < topics; i++ {
		if err := proxy.AddTopic(lasthop.BufferConfig(fmt.Sprintf("t%04d", i), 8, 16)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic := fmt.Sprintf("t%04d", i%topics)
		proxy.Notify(&lasthop.Notification{
			ID:        lasthop.ID(fmt.Sprintf("n%d", i)),
			Topic:     topic,
			Rank:      float64(i % 97),
			Published: start,
		})
		if i%64 == 0 {
			if err := proxy.Read(lasthop.ReadRequest{Topic: topic, N: 8}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJournalAppend measures the durable proxy's write-ahead cost.
func BenchmarkJournalAppend(b *testing.B) {
	path := b.TempDir() + "/bench.journal"
	j, err := lasthop.OpenJournal(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := lasthop.NewVirtualClock(start)
	proxy := lasthop.NewProxy(clock, nopForwarder{})
	rec := journal.NewRecorder(clock, proxy, j)
	if err := rec.AddTopic(lasthop.BufferConfig("t", 8, 16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := rec.Notify(&lasthop.Notification{
			ID:        lasthop.ID(fmt.Sprintf("n%d", i)),
			Topic:     "t",
			Rank:      1,
			Published: start,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioGeneration measures generating a full-year scenario.
func BenchmarkScenarioGeneration(b *testing.B) {
	cfg := lasthop.SimConfig{Seed: 1, EventsPerDay: 32, ReadsPerDay: 8, Max: 8}
	cfg.Outage.Fraction = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := lasthop.NewScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
