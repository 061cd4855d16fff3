package multidev

import (
	"fmt"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/device"
	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
	"lasthop/internal/simtime"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// rig is a user with several devices, each with its own proxy and last
// hop, all subscribed to the same topic on one broker.
type rig struct {
	clock  *simtime.Virtual
	broker *pubsub.Broker
	group  *Group
	links  map[string]*link.Link
}

type fwd struct {
	dev *device.Device
}

func (f *fwd) ForwardBatch(b []*msg.Notification) error { return core.ForwardEach(b, f.dev.Receive) }

func newRig(t *testing.T, names ...string) *rig {
	t.Helper()
	clock := simtime.NewVirtual(t0)
	broker := pubsub.NewBroker("hub")
	if err := broker.Advertise("news", "pub"); err != nil {
		t.Fatal(err)
	}
	r := &rig{clock: clock, broker: broker, links: make(map[string]*link.Link)}
	var members []Member
	for _, name := range names {
		lnk := link.New(clock, true)
		f := &fwd{}
		proxy := core.New(clock, f)
		dev := device.New(clock, lnk, proxy, device.Config{})
		f.dev = dev
		lnk.OnChange(proxy.SetNetwork)
		if err := proxy.AddTopic(core.BufferConfig("news", 4, 10)); err != nil {
			t.Fatal(err)
		}
		sub := msg.Subscription{Topic: "news", Subscriber: name, Options: msg.SubscriptionOptions{Max: 4}}
		if err := broker.Subscribe(sub, proxy.Subscriber()); err != nil {
			t.Fatal(err)
		}
		members = append(members, Member{Name: name, Device: dev, Link: lnk})
		r.links[name] = lnk
	}
	group, err := NewGroup(members...)
	if err != nil {
		t.Fatal(err)
	}
	r.group = group
	return r
}

func (r *rig) publish(t *testing.T, id msg.ID, rank float64) {
	t.Helper()
	n := &msg.Notification{ID: id, Topic: "news", Publisher: "pub", Rank: rank, Published: r.clock.Now()}
	if err := r.broker.Publish(n); err != nil {
		t.Fatal(err)
	}
}

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(); err == nil {
		t.Error("empty group accepted")
	}
	clock := simtime.NewVirtual(t0)
	lnk := link.New(clock, true)
	dev := device.New(clock, lnk, nil, device.Config{})
	m := Member{Name: "a", Device: dev, Link: lnk}
	if _, err := NewGroup(m, m); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewGroup(Member{Name: "", Device: dev, Link: lnk}); err == nil {
		t.Error("unnamed member accepted")
	}
	g, err := NewGroup(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Members(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Members = %v", got)
	}
	if _, err := g.Read("ghost", "news", 1); err == nil {
		t.Error("read on unknown member accepted")
	}
}

func TestBorrowFromSiblingCacheDuringOutage(t *testing.T) {
	r := newRig(t, "phone", "laptop")
	// The phone's link dies; the laptop keeps receiving.
	r.links["phone"].SetUp(false)
	r.publish(t, "a", 5)
	r.publish(t, "b", 3)
	r.clock.Advance(time.Minute)

	// Without cooperation the phone read would come up empty...
	r.group.SetAdhoc(false)
	batch, err := r.group.Read("phone", "news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Fatalf("phone read %v without ad-hoc network", batch)
	}
	// ...with the ad-hoc network, the laptop's cache serves the user.
	r.group.SetAdhoc(true)
	batch, err = r.group.Read("phone", "news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "a" || batch[1].ID != "b" {
		t.Fatalf("phone read %v, want the laptop's cache", batch)
	}
	if r.group.Stats().Borrowed != 2 {
		t.Errorf("Borrowed = %d, want 2", r.group.Stats().Borrowed)
	}
}

func TestGossipReleasesSiblingCopies(t *testing.T) {
	r := newRig(t, "phone", "laptop")
	r.publish(t, "a", 5)
	r.clock.Advance(time.Minute)
	// Both devices prefetched a copy.
	if r.group.members[0].Device.QueueLen("news") != 1 ||
		r.group.members[1].Device.QueueLen("news") != 1 {
		t.Fatal("both devices should hold a copy")
	}
	// The user reads on the phone; the laptop's copy is released.
	if _, err := r.group.Read("phone", "news", 4); err != nil {
		t.Fatal(err)
	}
	if got := r.group.members[1].Device.QueueLen("news"); got != 0 {
		t.Errorf("laptop still holds %d copies after gossip", got)
	}
	if r.group.Stats().Released != 1 {
		t.Errorf("Released = %d, want 1", r.group.Stats().Released)
	}
	// The union read set has the message exactly once.
	union := r.group.ReadUnion("news")
	if union.Len() != 1 || !union.Contains("a") {
		t.Errorf("ReadUnion = %v", union)
	}
	// A late re-read on the laptop does not resurrect it.
	batch, err := r.group.Read("laptop", "news", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Errorf("laptop re-read returned %v", batch)
	}
}

func TestNoDuplicateConsumptionAcrossDevices(t *testing.T) {
	r := newRig(t, "phone", "laptop", "tablet")
	for i := 0; i < 6; i++ {
		r.publish(t, msg.ID(fmt.Sprintf("n%d", i)), float64(i))
	}
	r.clock.Advance(time.Minute)
	seen := make(msg.IDSet)
	for _, name := range []string{"phone", "laptop", "tablet", "phone"} {
		batch, err := r.group.Read(name, "news", 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batch {
			if !seen.Add(n.ID) {
				t.Errorf("message %s consumed twice", n.ID)
			}
		}
	}
	if seen.Len() != 6 {
		t.Errorf("consumed %d distinct messages, want 6", seen.Len())
	}
}

func TestCooperationReducesLoss(t *testing.T) {
	// Phone offline the whole time, laptop online: with cooperation the
	// user keeps reading on the phone regardless.
	r := newRig(t, "phone", "laptop")
	r.links["phone"].SetUp(false)
	total := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			r.publish(t, msg.ID(fmt.Sprintf("r%d-n%d", round, i)), float64(i))
		}
		r.clock.Advance(time.Hour)
		batch, err := r.group.Read("phone", "news", 4)
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	if total != 15 {
		t.Errorf("phone user read %d of 15 despite the laptop being online", total)
	}
}
