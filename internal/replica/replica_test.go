package replica

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type recorder struct {
	got     []*msg.Notification
	batches int
	fail    bool
}

func (r *recorder) ForwardBatch(batch []*msg.Notification) error {
	if r.fail {
		return errors.New("injected link failure")
	}
	r.batches++
	r.got = append(r.got, batch...)
	return nil
}

func (r *recorder) ids() msg.IDSet {
	s := make(msg.IDSet)
	for _, n := range r.got {
		s.Add(n.ID)
	}
	return s
}

func note(id msg.ID, rank float64, at time.Time) *msg.Notification {
	return &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: at}
}

func TestNewValidation(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	if _, err := New(clock, nil, 2); err == nil {
		t.Error("nil forwarder accepted")
	}
	if _, err := New(clock, &recorder{}, 0); err == nil {
		t.Error("zero replicas accepted")
	}
	r, err := New(clock, &recorder{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != 3 || r.Active() != 0 || r.AliveCount() != 3 {
		t.Errorf("fresh group state wrong: %d %d %d", r.Replicas(), r.Active(), r.AliveCount())
	}
}

func TestReplicasTrackActiveExactly(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddTopic(core.BufferConfig("t", 4, 8)); err != nil {
		t.Fatal(err)
	}
	r.SetNetwork(true)
	for i := 0; i < 20; i++ {
		r.Notify(note(msg.ID(fmt.Sprintf("n%02d", i)), float64(i%7), clock.Now()))
		clock.Advance(time.Minute)
	}
	if err := r.Read(msg.ReadRequest{Topic: "t", N: 4, QueueSize: 8}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)

	// Every replica's per-topic state must be identical.
	ref, ok := r.SnapshotOf(0, "t")
	if !ok {
		t.Fatal("no snapshot")
	}
	for i := 1; i < r.Replicas(); i++ {
		snap, ok := r.SnapshotOf(i, "t")
		if !ok {
			t.Fatalf("replica %d missing topic", i)
		}
		if snap != ref {
			t.Errorf("replica %d diverged:\n  active: %+v\n  standby: %+v", i, ref, snap)
		}
	}
	// Only one copy of each forwarded message reached the device.
	seen := make(msg.IDSet)
	for _, n := range dev.got {
		if !seen.Add(n.ID) {
			t.Errorf("message %s forwarded twice", n.ID)
		}
	}
}

func TestFailoverContinuesService(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddTopic(core.OnDemandConfig("t", 2)); err != nil {
		t.Fatal(err)
	}
	r.SetNetwork(true)
	for i := 0; i < 6; i++ {
		r.Notify(note(msg.ID(fmt.Sprintf("n%d", i)), float64(i), clock.Now()))
	}
	if err := r.Read(msg.ReadRequest{Topic: "t", N: 2}); err != nil {
		t.Fatal(err)
	}
	before := dev.ids()
	if before.Len() != 2 {
		t.Fatalf("first read forwarded %d", before.Len())
	}

	// The primary dies; the standby takes over with full state.
	if err := r.Fail(0); err != nil {
		t.Fatal(err)
	}
	if r.Active() != 1 || r.AliveCount() != 1 {
		t.Fatalf("failover state: active=%d alive=%d", r.Active(), r.AliveCount())
	}
	// The next read must return the next-best messages, not repeats: the
	// successor knows what was already forwarded (the user consumed n5
	// and n4, so the device queue is empty again).
	if err := r.Read(msg.ReadRequest{Topic: "t", N: 2}); err != nil {
		t.Fatal(err)
	}
	after := dev.ids()
	if after.Len() != 4 || !after.Contains("n3") || !after.Contains("n2") {
		t.Errorf("post-failover forwards: %v", after)
	}
}

func TestFailoverFlushesSpooledMessages(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddTopic(core.BufferConfig("t", 4, 8)); err != nil {
		t.Fatal(err)
	}
	// Outage: everything spools on both replicas.
	r.SetNetwork(false)
	for i := 0; i < 3; i++ {
		r.Notify(note(msg.ID(fmt.Sprintf("n%d", i)), float64(i), clock.Now()))
	}
	r.SetNetwork(true)
	firstBatch := len(dev.got)
	if firstBatch != 3 {
		t.Fatalf("reconnection flushed %d", firstBatch)
	}
	// Primary dies while the link stays up; more notifications arrive.
	if err := r.Fail(0); err != nil {
		t.Fatal(err)
	}
	r.Notify(note("late", 9, clock.Now()))
	found := false
	for _, n := range dev.got[firstBatch:] {
		if n.ID == "late" {
			found = true
		}
	}
	if !found {
		t.Error("successor did not forward a post-failover arrival")
	}
}

func TestForwardFailureKeepsReplicasAligned(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddTopic(core.OnlineConfig("t")); err != nil {
		t.Fatal(err)
	}
	dev.fail = true
	r.Notify(note("a", 1, clock.Now()))
	// Active observed the failure and requeued; the standby got the
	// network-down signal and queued too.
	for i := 0; i < 2; i++ {
		snap, _ := r.SnapshotOf(i, "t")
		if snap.Outgoing != 1 {
			t.Errorf("replica %d outgoing = %d, want 1", i, snap.Outgoing)
		}
	}
	dev.fail = false
	r.SetNetwork(true)
	if len(dev.got) != 1 || dev.got[0].ID != "a" {
		t.Errorf("after recovery: %v", dev.ids())
	}
}

// TestReconnectDrainIsOneBatch: the active replica's backlog reaches the
// device in one call when the link returns. The gate used to offer only a
// per-notification forward, which hid the device's batching and made every
// replicated proxy push one notification per call.
func TestReconnectDrainIsOneBatch(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddTopic(core.OnlineConfig("t")); err != nil {
		t.Fatal(err)
	}
	r.SetNetwork(false)
	for i := 0; i < 3; i++ {
		r.Notify(note(msg.ID(fmt.Sprintf("n%d", i)), float64(i), clock.Now()))
	}
	r.SetNetwork(true)
	if dev.batches != 1 || len(dev.got) != 3 {
		t.Errorf("drain reached the device in %d calls carrying %d notifications, want 1 call of 3",
			dev.batches, len(dev.got))
	}
}

func TestFailErrors(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	r, err := New(clock, &recorder{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fail(5); err == nil {
		t.Error("failing unknown replica succeeded")
	}
	if err := r.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Fail(1); err == nil {
		t.Error("double failure succeeded")
	}
	if err := r.Fail(0); err == nil {
		t.Error("failing the last replica must error")
	}
}

func TestRankUpdateReplicated(t *testing.T) {
	clock := simtime.NewVirtual(t0)
	dev := &recorder{}
	r, err := New(clock, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.OnDemandConfig("t", 4)
	cfg.RankThreshold = 2
	if err := r.AddTopic(cfg); err != nil {
		t.Fatal(err)
	}
	r.Notify(note("a", 5, clock.Now()))
	r.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 0})
	for i := 0; i < 2; i++ {
		snap, _ := r.SnapshotOf(i, "t")
		if snap.Prefetch != 0 {
			t.Errorf("replica %d kept the retracted event", i)
		}
	}
}

// TestReplicatedMatchesSingle replays a mixed workload against a single
// proxy and a 3-replica group and requires the device to observe the
// identical forward sequence.
func TestReplicatedMatchesSingle(t *testing.T) {
	workload := func(apply func(step int, notify func(*msg.Notification), read func(msg.ReadRequest), network func(bool))) {
	}
	_ = workload

	runSingle := func() []msg.ID {
		clock := simtime.NewVirtual(t0)
		dev := &recorder{}
		p := core.New(clock, dev)
		if err := p.AddTopic(core.BufferConfig("t", 2, 4)); err != nil {
			t.Fatal(err)
		}
		driveWorkload(clock, p.Notify, func(req msg.ReadRequest) { _ = p.Read(req) }, p.SetNetwork)
		out := make([]msg.ID, 0, len(dev.got))
		for _, n := range dev.got {
			out = append(out, n.ID)
		}
		return out
	}
	runReplicated := func(failAt int) []msg.ID {
		clock := simtime.NewVirtual(t0)
		dev := &recorder{}
		r, err := New(clock, dev, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddTopic(core.BufferConfig("t", 2, 4)); err != nil {
			t.Fatal(err)
		}
		step := 0
		driveWorkload(clock,
			func(n *msg.Notification) {
				if step == failAt {
					if err := r.Fail(r.Active()); err != nil {
						t.Fatal(err)
					}
				}
				step++
				r.Notify(n)
			},
			func(req msg.ReadRequest) { _ = r.Read(req) },
			r.SetNetwork,
		)
		out := make([]msg.ID, 0, len(dev.got))
		for _, n := range dev.got {
			out = append(out, n.ID)
		}
		return out
	}

	want := runSingle()
	for _, failAt := range []int{-1, 0, 5, 11} {
		got := runReplicated(failAt)
		if len(got) != len(want) {
			t.Fatalf("failAt=%d: %d forwards vs single's %d\n got: %v\nwant: %v",
				failAt, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("failAt=%d: forward %d = %s, want %s", failAt, i, got[i], want[i])
			}
		}
	}
}

// driveWorkload is a fixed mixed sequence of arrivals, outages, and reads.
func driveWorkload(clock *simtime.Virtual, notify func(*msg.Notification), read func(msg.ReadRequest), network func(bool)) {
	ranks := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	for i, rank := range ranks {
		notify(note(msg.ID(fmt.Sprintf("w%02d", i)), rank, clock.Now()))
		clock.Advance(30 * time.Minute)
		switch i {
		case 3:
			network(false)
		case 6:
			network(true)
		case 9:
			read(msg.ReadRequest{Topic: "t", N: 2, QueueSize: 4})
		case 12:
			read(msg.ReadRequest{Topic: "t", N: 2, QueueSize: 3})
		}
	}
	clock.Advance(time.Hour)
}
