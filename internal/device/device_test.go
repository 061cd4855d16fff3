package device

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"lasthop/internal/link"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeBackend records read requests and can push notifications back into
// the device (as the proxy would) when a read arrives. It records a copy of
// each request's ClientEvents, which the device reuses.
type fakeBackend struct {
	dev      *Device
	requests []msg.ReadRequest
	respond  []*msg.Notification
	err      error
}

var _ ReadBackend = (*fakeBackend)(nil)

func (b *fakeBackend) Read(req msg.ReadRequest) error {
	req.ClientEvents = slices.Clone(req.ClientEvents)
	b.requests = append(b.requests, req)
	if b.err != nil {
		return b.err
	}
	for _, n := range b.respond {
		if err := b.dev.Receive(n); err != nil {
			return err
		}
	}
	b.respond = nil
	return nil
}

type fixture struct {
	sched   *simtime.Virtual
	lnk     *link.Link
	backend *fakeBackend
	dev     *Device
}

func newFixture(cfg Config) *fixture {
	sched := simtime.NewVirtual(t0)
	lnk := link.New(sched, true)
	backend := &fakeBackend{}
	dev := New(sched, lnk, backend, cfg)
	backend.dev = dev
	return &fixture{sched: sched, lnk: lnk, backend: backend, dev: dev}
}

func (f *fixture) note(id msg.ID, rank float64, life time.Duration) *msg.Notification {
	n := &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: f.sched.Now()}
	if life > 0 {
		n.Expires = f.sched.Now().Add(life)
	}
	return n
}

func TestReceiveAndRead(t *testing.T) {
	f := newFixture(Config{})
	for i, r := range []float64{1, 5, 3} {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if f.dev.QueueLen("t") != 3 {
		t.Fatalf("QueueLen = %d", f.dev.QueueLen("t"))
	}
	batch, err := f.dev.Read("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "b" || batch[1].ID != "c" {
		t.Errorf("read %v", batch)
	}
	if f.dev.QueueLen("t") != 1 {
		t.Errorf("QueueLen after read = %d", f.dev.QueueLen("t"))
	}
	s := f.dev.Stats()
	if s.Received != 3 || s.ReadCount != 2 {
		t.Errorf("stats = %+v", s)
	}
	read := f.dev.ReadSet("t")
	if !read.Contains("b") || !read.Contains("c") || read.Contains("a") {
		t.Errorf("ReadSet = %v", read)
	}
}

func TestUnlimitedRead(t *testing.T) {
	f := newFixture(Config{})
	for i := 0; i < 5; i++ {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := f.dev.Read("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 5 {
		t.Errorf("unlimited read returned %d", len(batch))
	}
	// The relayed request says N=0 and offers everything.
	if len(f.backend.requests) != 1 || f.backend.requests[0].N != 0 ||
		len(f.backend.requests[0].ClientEvents) != 5 {
		t.Errorf("request = %+v", f.backend.requests)
	}
}

func TestReadRelaysBestLocalIDs(t *testing.T) {
	f := newFixture(Config{})
	for i, r := range []float64{1, 9, 5} {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.dev.Read("t", 2); err != nil {
		t.Fatal(err)
	}
	req := f.backend.requests[0]
	if req.N != 2 || req.QueueSize != 3 {
		t.Errorf("request = %+v", req)
	}
	if len(req.ClientEvents) != 2 || req.ClientEvents[0] != "b" || req.ClientEvents[1] != "c" {
		t.Errorf("ClientEvents = %v", req.ClientEvents)
	}
}

func TestReadMergesProxyResponse(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("local", 2, 0)); err != nil {
		t.Fatal(err)
	}
	f.backend.respond = []*msg.Notification{f.note("better", 7, 0)}
	batch, err := f.dev.Read("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].ID != "better" {
		t.Errorf("read %v, want the proxy's better event", batch)
	}
	if f.dev.QueueLen("t") != 1 {
		t.Errorf("QueueLen = %d, want the local event still queued", f.dev.QueueLen("t"))
	}
}

func TestReadBatchIsCallerOwned(t *testing.T) {
	f := newFixture(Config{})
	for i, r := range []float64{6, 5, 4, 3, 2, 1} {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := f.dev.Read("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dev.Read("t", 3); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ids(first)); got != "[a b c]" {
		t.Errorf("first batch is %s after the second read, want [a b c]", got)
	}
	if got := fmt.Sprint(f.backend.requests[0].ClientEvents); got != "[a b c]" {
		t.Errorf("first request offered %s, want [a b c]", got)
	}
}

// nopBackend accepts every read and sends nothing back.
type nopBackend struct{}

func (nopBackend) Read(msg.ReadRequest) error { return nil }

// TestAppendReadAllocatesNothing reads a warm device into one reused
// batch, offering and taking three of a deep queue per read, with the
// link up and with it down.
func TestAppendReadAllocatesNothing(t *testing.T) {
	f := newFixture(Config{})
	f.dev.backend = nopBackend{}
	for i := range 1000 {
		if err := f.dev.Receive(f.note(msg.ID(fmt.Sprintf("n%04d", i)), float64(i%7), time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	var batch []*msg.Notification
	for _, up := range []bool{true, false} {
		f.lnk.SetUp(up)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			batch, err = f.dev.AppendRead(batch[:0], "t", 3)
		})
		if err != nil || len(batch) != 3 {
			t.Fatalf("link up %v: read %d, %v", up, len(batch), err)
		}
		if allocs != 0 {
			t.Errorf("link up %v: %.1f allocations per read, want 0", up, allocs)
		}
	}
}

func TestReadOfflineServedLocally(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("a", 2, 0)); err != nil {
		t.Fatal(err)
	}
	f.lnk.SetUp(false)
	batch, err := f.dev.Read("t", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].ID != "a" {
		t.Errorf("offline read %v", batch)
	}
	// The read state still reaches the proxy's algorithm (Figure 7's
	// READ is network-agnostic), but no upstream transfer is accounted.
	if len(f.backend.requests) != 1 {
		t.Errorf("relayed %d requests, want 1", len(f.backend.requests))
	}
	if f.dev.Stats().RequestsSent != 0 {
		t.Error("offline read accounted an upstream transfer")
	}
	if f.lnk.Stats().MessagesUp != 0 {
		t.Error("offline read crossed the link")
	}
}

func TestReceiveWhileDownFails(t *testing.T) {
	f := newFixture(Config{})
	f.lnk.SetUp(false)
	err := f.dev.Receive(f.note("a", 2, 0))
	if !errors.Is(err, link.ErrDown) {
		t.Errorf("err = %v, want ErrDown", err)
	}
	if f.dev.Stats().Received != 0 {
		t.Error("failed receive was counted")
	}
}

func TestDuplicateReceiveIsRankUpdate(t *testing.T) {
	f := newFixture(Config{RankThreshold: 3})
	if err := f.dev.Receive(f.note("a", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Receive(f.note("a", 8, 0)); err != nil {
		t.Fatal(err)
	}
	s := f.dev.Stats()
	if s.Received != 1 || s.Updates != 1 {
		t.Errorf("stats = %+v", s)
	}
	batch, err := f.dev.Read("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Rank != 8 {
		t.Errorf("rank = %v, want updated 8", batch[0].Rank)
	}
}

func TestRankDropSignalDiscardsLocalCopy(t *testing.T) {
	f := newFixture(Config{RankThreshold: 3})
	if err := f.dev.Receive(f.note("a", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Receive(f.note("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if f.dev.QueueLen("t") != 0 {
		t.Error("dropped notification still queued")
	}
	if f.dev.Stats().RankDropsApplied != 1 {
		t.Errorf("RankDropsApplied = %d", f.dev.Stats().RankDropsApplied)
	}
}

func TestUpdateForConsumedNotificationIgnored(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("a", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.dev.Read("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Receive(f.note("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if f.dev.Stats().Updates != 1 {
		t.Errorf("Updates = %d", f.dev.Stats().Updates)
	}
	if f.dev.QueueLen("t") != 0 {
		t.Error("consumed notification resurrected")
	}
}

func TestStorageEviction(t *testing.T) {
	f := newFixture(Config{Capacity: 2})
	for i, r := range []float64{5, 1, 3} {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if f.dev.QueueLen("t") != 2 {
		t.Fatalf("QueueLen = %d, want 2", f.dev.QueueLen("t"))
	}
	if f.dev.Stats().EvictedStorage != 1 {
		t.Errorf("EvictedStorage = %d", f.dev.Stats().EvictedStorage)
	}
	// The lowest-ranked ("b", rank 1) must be the victim.
	f.lnk.SetUp(false)
	batch, err := f.dev.Read("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].ID != "a" || batch[1].ID != "c" {
		t.Errorf("survivors = %v, want [a c]", batch)
	}
}

func TestExpiredUnreadPurged(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("short", 5, time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Receive(f.note("long", 1, 0)); err != nil {
		t.Fatal(err)
	}
	f.sched.Advance(time.Hour)
	batch, err := f.dev.Read("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].ID != "long" {
		t.Errorf("read %v, want [long]", batch)
	}
	if f.dev.Stats().ExpiredUnread != 1 {
		t.Errorf("ExpiredUnread = %d", f.dev.Stats().ExpiredUnread)
	}
}

func TestExpiredOnArrivalCountsAsWaste(t *testing.T) {
	f := newFixture(Config{})
	n := f.note("stale", 5, time.Minute)
	f.sched.Advance(time.Hour)
	if err := f.dev.Receive(n); err != nil {
		t.Fatal(err)
	}
	s := f.dev.Stats()
	if s.Received != 1 || s.ExpiredUnread != 1 {
		t.Errorf("stats = %+v", s)
	}
	if f.dev.QueueLen("t") != 0 {
		t.Error("stale notification queued")
	}
}

func TestBatteryExhaustion(t *testing.T) {
	f := newFixture(Config{BatteryCapacity: 2.4, ReceiveCost: 1, RequestCost: 0.5})
	if err := f.dev.Receive(f.note("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Receive(f.note("b", 2, 0)); err != nil {
		t.Fatal(err)
	}
	rem, ok := f.dev.BatteryRemaining()
	if !ok || math.Abs(rem-0.4) > 1e-9 {
		t.Errorf("BatteryRemaining = %v, %v", rem, ok)
	}
	// The next read drains the final 0.5 budget for the request...
	if _, err := f.dev.Read("t", 1); err != nil {
		t.Fatal(err)
	}
	// ...after which the device is inoperable.
	if err := f.dev.Receive(f.note("c", 3, 0)); !errors.Is(err, ErrBatteryDead) {
		t.Errorf("Receive on dead battery: %v", err)
	}
	if _, err := f.dev.Read("t", 1); !errors.Is(err, ErrBatteryDead) {
		t.Errorf("Read on dead battery: %v", err)
	}
}

func TestBatteryUnlimitedByDefault(t *testing.T) {
	f := newFixture(Config{})
	if _, ok := f.dev.BatteryRemaining(); ok {
		t.Error("unbounded battery reported a remaining value")
	}
	for i := 0; i < 1000; i++ {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i%26))+msg.ID(rune('0'+i/26%10))+msg.ID(rune('0'+i/260)), 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if f.dev.Stats().Received != 1000 {
		t.Errorf("Received = %d", f.dev.Stats().Received)
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	f := newFixture(Config{})
	f.backend.err = errors.New("proxy unreachable")
	if _, err := f.dev.Read("t", 1); err == nil {
		t.Error("backend error swallowed")
	}
}

func TestReadEmptyTopic(t *testing.T) {
	f := newFixture(Config{})
	f.lnk.SetUp(false)
	batch, err := f.dev.Read("ghost", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 0 {
		t.Errorf("read %v from empty topic", batch)
	}
	if f.dev.QueueLen("ghost") != 0 || f.dev.ReadSet("ghost").Len() != 0 {
		t.Error("empty topic has state")
	}
}

func TestLinkAccounting(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.dev.Read("t", 1); err != nil {
		t.Fatal(err)
	}
	ls := f.lnk.Stats()
	if ls.MessagesDown != 1 || ls.MessagesUp != 1 {
		t.Errorf("link stats = %+v", ls)
	}
	if ls.BytesDown == 0 || ls.BytesUp == 0 {
		t.Errorf("byte accounting missing: %+v", ls)
	}
}
