package wire

import (
	"fmt"
	"net"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/journal"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

// dropForwarder stands in for the device link of a recorded proxy.
type dropForwarder struct{}

func (dropForwarder) ForwardBatch([]*msg.Notification) error { return nil }

// TestProxyJournalRecoversTuners: a restarted durable proxy replays its
// journal at the recorded instants, so Figure 7's tuners come back as the
// recorded proxy left them. Reads one hour apart must recover a one-hour
// expiration threshold (the moving average of inter-read intervals), not
// the zero that replaying every entry at one instant would give.
func TestProxyJournalRecoversTuners(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("broker"), t.Logf)
	go func() { _ = bs.Serve(bl) }()
	defer bs.Close()
	journalPath := t.TempDir() + "/proxy.journal"

	// The recorded life: a unified topic with the device attached,
	// notifications without lifetimes, and a read every hour. It ends two
	// hours before the restart.
	clock := simtime.NewVirtual(time.Now().Add(-6 * time.Hour).Truncate(time.Second))
	j, err := journal.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	recorded := core.New(clock, dropForwarder{})
	rec := journal.NewRecorder(clock, recorded, j)
	if err := rec.AddTopic(core.UnifiedConfig("news", 2)); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetNetwork(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < 3; k++ {
			n := &msg.Notification{ID: msg.ID(fmt.Sprintf("n%d-%d", i, k)), Topic: "news", Rank: float64(k + 1), Published: clock.Now()}
			if err := rec.Notify(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.Read(msg.ReadRequest{Topic: "news", N: 2, QueueSize: 3}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	want, _ := recorded.Snapshot("news")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if want.ExpirationThreshold != time.Hour {
		t.Fatalf("recorded proxy tuned ExpirationThreshold to %v, want 1h", want.ExpirationThreshold)
	}

	ps, _ := startDurableProxy(t, bl.Addr().String(), journalPath)
	defer ps.Close()
	got, ok := ps.Snapshot("news")
	if !ok {
		t.Fatal("restarted proxy lost the topic")
	}
	if got != want {
		t.Errorf("restarted proxy diverged from the recorded one:\n  want %+v\n  got  %+v", want, got)
	}
}
