package device

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// TestStoreProperties drives a bounded, windowed store with random pushes,
// revisions and reads and checks after every step that (§2.3) storage
// pressure never evicts an unread notification while a lower-ranked one is
// kept, and that a consumed ID inside the window never surfaces again.
func TestStoreProperties(t *testing.T) {
	const (
		topic    = "t"
		capacity = 8
		history  = 6 // window of 12 first receipts
	)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := t0
		s := NewStore(capacity, 0)
		s.Configure(topic, 2, history)

		// The model of the window: IDs in order of their first receipt, an
		// ID still inside it not taking a second slot; and what the user
		// read in the ID's current life — one that comes back Fresh after
		// the window moved past it starts over.
		var receipts []msg.ID
		consumed := make(msg.IDSet)
		inWindow := func(id msg.ID) bool {
			from := len(receipts) - 2*history
			if from < 0 {
				from = 0
			}
			for _, r := range receipts[from:] {
				if r == id {
					return true
				}
			}
			return false
		}
		held := func() map[msg.ID]*msg.Notification {
			out := make(map[msg.ID]*msg.Notification)
			for _, n := range s.Peek(topic, 0) {
				out[n.ID] = n
			}
			return out
		}

		next := 0
		for step := 0; step < 2000; step++ {
			before, evictedBefore := held(), s.Stats.EvictedStorage
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // first push
				n := &msg.Notification{
					ID: msg.ID(fmt.Sprintf("n%05d", next)), Topic: topic,
					Rank: float64(rng.Intn(80)) / 10, Published: now,
				}
				next++
				if rng.Intn(4) == 0 {
					n.Expires = now.Add(time.Duration(rng.Intn(600)) * time.Second)
				}
				if s.Accept(n, now) == Fresh {
					receipts = append(receipts, n.ID)
					before[n.ID] = n.Clone()
				}
			case 4, 5: // re-forward of an earlier ID, possibly a consumed one
				if next == 0 {
					continue
				}
				id := msg.ID(fmt.Sprintf("n%05d", rng.Intn(next)))
				n := &msg.Notification{ID: id, Topic: topic, Rank: float64(rng.Intn(80)) / 10, Published: now}
				out := s.Accept(n, now)
				if consumed.Contains(id) && inWindow(id) && out != AlreadyConsumed {
					t.Fatalf("seed %d step %d: consumed %s inside the window came back as outcome %d", seed, step, id, out)
				}
				if out == Fresh {
					if !inWindow(id) {
						receipts = append(receipts, id)
					}
					consumed.Remove(id)
					before[id] = n.Clone()
				}
			case 6: // read
				s.Expire(topic, now, nil)
				for _, n := range s.Take(nil, topic, rng.Intn(5)) {
					if consumed.Contains(n.ID) && inWindow(n.ID) {
						t.Fatalf("seed %d step %d: consumed %s read again inside the window", seed, step, n.ID)
					}
					consumed.Add(n.ID)
				}
			case 7:
				now = now.Add(time.Duration(rng.Intn(120)) * time.Second)
			}

			after := held()
			if len(after) > capacity {
				t.Fatalf("seed %d step %d: %d held, capacity %d", seed, step, len(after), capacity)
			}
			if s.Stats.EvictedStorage > evictedBefore {
				// Only a Fresh push evicts, and nothing else leaves the queue
				// in that step: whatever is gone was evicted, and nothing
				// kept may rank below it.
				for id, gone := range before {
					if _, kept := after[id]; kept {
						continue
					}
					for _, k := range after {
						if gone.Before(k) {
							t.Fatalf("seed %d step %d: %s (rank %v) evicted while %s (rank %v) is kept",
								seed, step, gone.ID, gone.Rank, k.ID, k.Rank)
						}
					}
				}
			}
			if got := s.ConsumedLen(topic); got > 2*history {
				t.Fatalf("seed %d step %d: %d consumed IDs remembered, window is %d", seed, step, got, 2*history)
			}
			if err := checkTable(s.topics[topic]); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// lossyLink is the last hop between a real core.Proxy and a Store: it can be
// down (the forward fails and the proxy keeps the notification) or dying (the
// forward is acknowledged and the notification lost in flight, which only a
// Resume recovers).
type lossyLink struct {
	t             *testing.T
	store         *Store
	now           func() time.Time
	down, dying   bool
	consumed      msg.IDSet // every ID the user ever read
	reportedFresh msg.IDSet
}

func (l *lossyLink) ForwardBatch(batch []*msg.Notification) error {
	if l.down {
		return errors.New("link down")
	}
	if l.dying {
		return nil
	}
	for _, n := range batch {
		switch l.store.Accept(n.Clone(), l.now()) {
		case Fresh, Unreadable:
			if l.consumed.Contains(n.ID) {
				l.t.Fatalf("consumed %s reported fresh again", n.ID)
			}
			l.reportedFresh.Add(n.ID)
		}
	}
	return nil
}

// TestStoreAgainstProxy checks the consumed-ID window against the proxy it
// has to outlive: random arrivals, revisions, outages (so outgoing drains in
// rank order, not arrival order), in-flight losses, reads and resumes with
// the list ResumeIDs cuts to the history bound.
//
// Why a window of 2×L first receipts is enough for a proxy history of L: the
// proxy evicts its history in arrival order and forgets an evicted ID
// everywhere, so it can re-send x only while x is among its last L arrivals.
// Take a y first received after x that arrived at the proxy before x: it was
// forwarded after x arrived, so it sat in the L-entry history together with
// x, and there are at most L−1 such y. Of any 2L distinct IDs first received
// after x, at least L+1 therefore arrived after x — and x has left the proxy.
func TestStoreAgainstProxy(t *testing.T) {
	const topic = "t"
	for _, history := range []int{1, 4, 64} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			clock := simtime.NewVirtual(t0)
			store := NewStore(0, 0)
			store.Configure(topic, 1, history)
			link := &lossyLink{
				t: t, store: store, now: clock.Now,
				consumed: make(msg.IDSet), reportedFresh: make(msg.IDSet),
			}
			proxy := core.New(clock, link)
			var cfg core.TopicConfig
			switch seed % 3 {
			case 0:
				cfg = core.OnlineConfig(topic)
			case 1:
				cfg = core.BufferConfig(topic, 4, 8)
			case 2:
				cfg = core.UnifiedConfig(topic, 4)
			}
			cfg.RankThreshold = 1
			cfg.HistoryLimit = history
			if err := proxy.AddTopic(cfg); err != nil {
				t.Fatal(err)
			}

			resume := func() {
				held, consumed := store.ResumeIDs(topic)
				if len(consumed) > history {
					t.Fatalf("history %d: resume replays %d consumed IDs", history, len(consumed))
				}
				if err := proxy.Resume(topic, msg.NewIDSet(held...), msg.NewIDSet(consumed...)); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			for step := 0; step < 3000; step++ {
				switch rng.Intn(12) {
				case 0, 1, 2, 3, 4: // arrival
					n := &msg.Notification{
						ID: msg.ID(fmt.Sprintf("n%05d", next)), Topic: topic,
						Rank: float64(rng.Intn(80)) / 10, Published: clock.Now(),
					}
					next++
					if rng.Intn(4) == 0 {
						n.Expires = clock.Now().Add(time.Duration(1+rng.Intn(3600)) * time.Second)
					}
					proxy.Notify(n)
				case 5: // rank revision of a recent notification
					if next > 0 {
						back := rng.Intn(3*history + 3)
						if back >= next {
							back = next - 1
						}
						proxy.ApplyRankUpdate(msg.RankUpdate{
							Topic: topic, ID: msg.ID(fmt.Sprintf("n%05d", next-1-back)),
							NewRank: float64(rng.Intn(80)) / 10,
						})
					}
				case 6: // outage begins or ends
					link.down = !link.down
					proxy.SetNetwork(!link.down)
				case 7: // the connection dies with pushes in flight, then the session resumes
					link.dying = true
					for i := rng.Intn(4); i > 0; i-- {
						proxy.Notify(&msg.Notification{
							ID: msg.ID(fmt.Sprintf("n%05d", next)), Topic: topic,
							Rank: 1 + float64(rng.Intn(70))/10, Published: clock.Now(),
						})
						next++
					}
					link.dying, link.down = false, false
					proxy.SetNetwork(true)
					resume()
				case 8: // resume on a healthy session
					if !link.down {
						resume()
					}
				case 9, 10: // user read; relayed only while the link is up
					n := rng.Intn(6)
					store.Expire(topic, clock.Now(), nil)
					req := store.Offer(nil, topic, n)
					if !link.down {
						if err := proxy.Read(req); err != nil {
							t.Fatal(err)
						}
					}
					for _, b := range store.Take(nil, topic, n) {
						if !link.consumed.Add(b.ID) {
							t.Fatalf("history %d seed %d step %d: %s read twice", history, seed, step, b.ID)
						}
					}
				case 11:
					clock.Advance(time.Duration(rng.Intn(900)) * time.Second)
				}
				if got := store.ConsumedLen(topic); got > 2*history {
					t.Fatalf("history %d seed %d step %d: %d consumed IDs remembered, bound is %d",
						history, seed, step, got, 2*history)
				}
			}
			if link.consumed.Len() == 0 || link.reportedFresh.Len() == 0 {
				t.Fatalf("history %d seed %d: the run read %d and received %d notifications; the model is not exercising the store",
					history, seed, link.consumed.Len(), link.reportedFresh.Len())
			}
		}
	}
}

// TestStoreTakeAllClearsExpiry: Take(0) takes the whole queue in one sort and
// empties the expiry heap in one step, which is sound only while the heap
// holds nothing but held IDs. Two stores see the same random accepts,
// expiries, rank drops and sibling reads; one reads with Take(0), the
// reference one notification at a time. They must agree on what was read,
// in what order, and on every counter.
func TestStoreTakeAllClearsExpiry(t *testing.T) {
	topics := []string{"a", "b"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := t0
		s, ref := NewStore(48, 1), NewStore(48, 1)
		for _, topic := range topics {
			s.Configure(topic, 1, 32)
			ref.Configure(topic, 1, 32)
		}
		// expirable counts what the expiry heap must hold: held IDs with a
		// lifetime, and nothing else.
		expirable := func(topic string) int {
			c := 0
			for _, sl := range s.topics[topic].arena.Slots {
				if sl.N != nil && !sl.N.NeverExpires() {
					c++
				}
			}
			return c
		}
		next := 0
		recent := func() msg.ID { return msg.ID(fmt.Sprintf("n%05d", next-1-rng.Intn(min(next, 16)))) }
		for step := 0; step < 1500; step++ {
			topic := topics[rng.Intn(len(topics))]
			switch rng.Intn(11) {
			case 0, 1, 2, 3, 4: // first push
				n := &msg.Notification{
					ID: msg.ID(fmt.Sprintf("n%05d", next)), Topic: topic,
					Rank: float64(rng.Intn(6)), Published: now.Add(-time.Duration(rng.Intn(2)) * time.Second),
				}
				next++
				if rng.Intn(2) == 0 {
					n.Expires = now.Add(time.Duration(rng.Intn(300)) * time.Second)
				}
				s.Accept(n.Clone(), now)
				ref.Accept(n, now)
			case 5: // revision, below the threshold a rank drop
				if next == 0 {
					continue
				}
				n := &msg.Notification{ID: recent(), Topic: topic, Rank: float64(rng.Intn(6)) / 2}
				s.Accept(n.Clone(), now)
				ref.Accept(n, now)
			case 6:
				s.Expire(topic, now, nil)
				ref.Expire(topic, now, nil)
			case 7: // read on a sibling device
				if next == 0 {
					continue
				}
				ids := []msg.ID{recent()}
				s.MarkConsumed(topic, ids)
				ref.MarkConsumed(topic, ids)
			case 8:
				now = now.Add(time.Duration(rng.Intn(60)) * time.Second)
			case 9: // the user reads everything
				var want []msg.ID
				for ref.QueueLen(topic) > 0 {
					want = append(want, ref.Take(nil, topic, 1)[0].ID)
				}
				got := s.Take(nil, topic, 0)
				if fmt.Sprint(ids(got)) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Take(0) = %v, one at a time %v", seed, step, ids(got), want)
				}
				for i := 1; i < len(got); i++ {
					if !got[i-1].Before(got[i]) {
						t.Fatalf("seed %d step %d: Take(0) out of rank order at %d", seed, step, i)
					}
				}
				if n := s.topics[topic].exp.Len(); n != 0 {
					t.Fatalf("seed %d step %d: %d expiry entries left after Take(0)", seed, step, n)
				}
			case 10: // the user reads a few
				k := 1 + rng.Intn(3)
				if got, want := ids(s.Take(nil, topic, k)), ids(ref.Take(nil, topic, k)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Take(%d) = %v, reference %v", seed, step, k, got, want)
				}
			}
			for _, topic := range topics {
				if got, want := s.topics[topic].exp.Len(), expirable(topic); got != want {
					t.Fatalf("seed %d step %d: topic %s expiry heap holds %d, %d held notifications expire", seed, step, topic, got, want)
				}
				if err := checkTable(s.topics[topic]); err != nil {
					t.Fatalf("seed %d step %d: topic %s: %v", seed, step, topic, err)
				}
			}
			if s.Stats != ref.Stats {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, s.Stats, ref.Stats)
			}
		}
		if s.Stats.ReadCount == 0 || s.Stats.ExpiredUnread == 0 || s.Stats.RankDropsApplied == 0 || s.Stats.PeerReleases == 0 {
			t.Fatalf("seed %d: the sequence missed an operation: %+v", seed, s.Stats)
		}
	}
}

func ids(notes []*msg.Notification) []msg.ID {
	out := make([]msg.ID, len(notes))
	for i, n := range notes {
		out[i] = n.ID
	}
	return out
}

// BenchmarkStoreReadAll is one Read(topic, 0) against 2,048 held
// notifications: the device offers every held ID, then takes them all.
func BenchmarkStoreReadAll(b *testing.B) {
	const depth = 2048
	rng := rand.New(rand.NewSource(1))
	s := NewStore(0, 0)
	s.Configure("t", 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < depth; k++ {
			s.Accept(&msg.Notification{
				ID: msg.ID(fmt.Sprintf("b%d-%05d", i, k)), Topic: "t",
				Rank: float64(rng.Intn(100)), Published: t0, Expires: t0.Add(time.Hour),
			}, t0)
		}
		b.StartTimer()
		if req := s.Offer(nil, "t", 0); len(req.ClientEvents) != depth {
			b.Fatalf("offered %d IDs", len(req.ClientEvents))
		}
		if got := len(s.Take(nil, "t", 0)); got != depth {
			b.Fatalf("took %d", got)
		}
	}
}
