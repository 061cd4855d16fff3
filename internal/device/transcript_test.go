package device

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// storeProgram runs one seeded program over every Store method and writes
// what each call returns to h: accepts of every outcome (first receipts,
// re-forwards of recent IDs in and out of the window, revisions below the
// threshold, expired arrivals), Expire, Offer, Take(n) and Take(0), Peek,
// Import, MarkConsumed and ResumeIDs. A history of -1 leaves the topic
// unconfigured; otherwise Configure gives it a window of 2×history first
// receipts (unbounded at 0) and now and then resizes it. Capacity 10 makes
// Fresh pushes evict.
func storeProgram(h hash.Hash, seed int64, history int) {
	const topic = "t"
	rng := rand.New(rand.NewSource(seed))
	now := t0
	s := NewStore(10, 1)
	configured := history >= 0
	if configured {
		s.Configure(topic, 1, history)
	}
	next := 0
	recent := func() msg.ID {
		return msg.ID(fmt.Sprintf("n%04d", next-1-rng.Intn(min(next, 40))))
	}
	note := func(id msg.ID) *msg.Notification {
		n := &msg.Notification{
			ID: id, Topic: topic, Rank: float64(rng.Intn(11)) / 2,
			Published: now.Add(-time.Duration(rng.Intn(3)) * time.Second),
		}
		switch rng.Intn(6) {
		case 0, 1:
			n.Expires = now.Add(time.Duration(1+rng.Intn(900)) * time.Second)
		case 2:
			n.Expires = now.Add(-time.Second) // expired on arrival
		}
		return n
	}
	fresh := func() *msg.Notification {
		next++
		return note(msg.ID(fmt.Sprintf("n%04d", next-1)))
	}
	listIDs := func(what string, ids []msg.ID) {
		fmt.Fprintf(h, " %s%v", what, ids)
	}
	for step := range 700 {
		fmt.Fprintf(h, "\n%d", step)
		switch k := rng.Intn(20); {
		case k < 6:
			n := fresh()
			fmt.Fprintf(h, " accept %s %d", n.ID, s.Accept(n, now))
		case k < 9:
			if next == 0 {
				continue
			}
			n := note(recent())
			fmt.Fprintf(h, " reforward %s %d", n.ID, s.Accept(n, now))
		case k == 9:
			var dropped []msg.ID
			s.Expire(topic, now, func(n *msg.Notification) { dropped = append(dropped, n.ID) })
			listIDs("expire", dropped)
		case k == 10:
			req := s.Offer(nil, topic, rng.Intn(5))
			fmt.Fprintf(h, " offer %d %d", req.N, req.QueueSize)
			listIDs("", req.ClientEvents)
		case k == 11, k == 12:
			n := rng.Intn(5)
			listIDs(fmt.Sprintf("take%d", n), ids(s.Take(nil, topic, n)))
		case k == 13:
			for _, n := range s.Peek(topic, rng.Intn(6)-1) {
				fmt.Fprintf(h, " peek %s %v", n.ID, n.Rank)
			}
		case k == 14:
			n := fresh()
			if rng.Intn(2) == 0 && next > 1 {
				n = note(recent())
			}
			fmt.Fprintf(h, " import %s %v", n.ID, s.Import(n, now))
		case k == 15:
			if next == 0 {
				continue
			}
			marked := []msg.ID{recent(), recent()}
			fmt.Fprintf(h, " mark %v %d", marked, s.MarkConsumed(topic, marked))
		case k == 16:
			held, consumed := s.ResumeIDs(topic)
			listIDs("held", held)
			listIDs("consumed", consumed)
		case k == 17:
			if configured {
				resized := []int{history, history, 4, 12}[rng.Intn(4)]
				s.Configure(topic, 1, resized)
				fmt.Fprintf(h, " configure %d", resized)
			}
		case k == 18:
			// A topic nobody pushed to: reads create it, Peek does not.
			other := fmt.Sprintf("u%d", rng.Intn(3))
			listIDs("other", ids(s.Peek(other, 0)))
			listIDs("", ids(s.Take(nil, other, 0)))
			fmt.Fprintf(h, " %d", s.Offer(nil, other, 1).QueueSize)
		default:
			now = now.Add(time.Duration(rng.Intn(240)) * time.Second)
		}
		fmt.Fprintf(h, " | %d %d", s.QueueLen(topic), s.ConsumedLen(topic))
	}
	read := s.ReadSet(topic)
	sorted := make([]msg.ID, 0, read.Len())
	for id := range read {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	listIDs("\nread", sorted)
	fmt.Fprintf(h, " %v %+v", s.Topics(), s.Stats)
}

// TestStoreTranscriptDigests runs seeded programs over every Store method,
// on a topic configured with a 16-receipt window, on one nobody configured
// and on one with an unbounded window, and compares their transcripts with
// digests recorded from the store that kept its queue, expiry index,
// consumed set and window each in a map of its own.
func TestStoreTranscriptDigests(t *testing.T) {
	for _, c := range []struct {
		history int
		want    string
	}{
		{8, "803f9573bc7a50ba"},
		{-1, "4337cc2cf3807f04"},
		{0, "51318e5e9cbf9103"},
	} {
		h := sha256.New()
		for seed := range int64(6) {
			storeProgram(h, seed, c.history)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("history %d: digest %s, want %s", c.history, got, c.want)
		}
	}
}

// heapBytes returns the live heap after two collections.
func heapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// BenchmarkStoreRetainedBytesPerID reports the heap a store keeps per ID
// after 100k first receipts: held-B/id while all of them are held, and
// consumed-B/id once the user has read them all ten at a time. The
// notifications themselves are built beforehand and kept alive, so only
// the store's own structures count. Every other notification has a
// lifetime. forever is a topic nobody configured, which remembers every
// consumed ID; window is one configured with a proxy history of 100k, so
// its window holds every receipt.
func BenchmarkStoreRetainedBytesPerID(b *testing.B) {
	const receipts = 100_000
	notes := make([]*msg.Notification, receipts)
	for i := range notes {
		notes[i] = &msg.Notification{ID: msg.ID(fmt.Sprintf("r%06d", i)), Topic: "t", Rank: float64(i % 97), Published: t0}
		if i%2 == 0 {
			notes[i].Expires = t0.Add(time.Hour)
		}
	}
	for _, c := range []struct {
		name    string
		history int // < 0: not configured
	}{{"forever", -1}, {"window", receipts}} {
		b.Run(c.name, func(b *testing.B) {
			var held, consumed int64
			for range b.N {
				base := heapBytes()
				s := NewStore(0, 0)
				if c.history >= 0 {
					s.Configure("t", 0, c.history)
				}
				for _, n := range notes {
					s.Accept(n, t0)
				}
				held += heapBytes() - base
				for s.QueueLen("t") > 0 {
					s.Take(nil, "t", 10)
				}
				consumed += heapBytes() - base
				runtime.KeepAlive(s)
			}
			b.ReportMetric(float64(held)/float64(b.N)/receipts, "held-B/id")
			b.ReportMetric(float64(consumed)/float64(b.N)/receipts, "consumed-B/id")
		})
	}
	runtime.KeepAlive(notes)
}
