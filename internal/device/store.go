package device

import (
	"sort"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/rankedq"
)

// Store is the device-side notification cache: per topic the ranked queue
// of unread notifications (§2.3, bounded with low-rank eviction), their
// expiry index, and the memory of consumed IDs that §3.5 reads and session
// resumption reconcile against. It is pure state — no lock, no I/O, the
// clock passed in — under both the simulated Device and the live
// wire.DeviceClient.
type Store struct {
	// Stats is the cumulative accounting; the link and battery fields are
	// the owner's to keep.
	Stats Stats

	capacity  int     // unread notifications kept per topic; zero means unbounded
	threshold float64 // rank threshold of topics nobody configured
	topics    map[string]*topicStore
	offer     []*msg.Notification // Offer's scratch
}

type topicStore struct {
	q         *rankedq.Queue
	exp       *rankedq.ExpiryIndex
	consumed  msg.IDSet
	threshold float64
	// window, when non-nil, holds the topic's first receipts in order and
	// bounds consumed: an ID leaving it is forgotten. A topic that was never
	// configured has none and remembers forever — the simulator compares
	// whole-run read sets. history is the proxy's bound it was sized from.
	window  *rankedq.History
	history int
}

// Outcome says what a pushed notification was to the store.
type Outcome int

const (
	// Fresh is a first receipt that is now held for reading.
	Fresh Outcome = iota
	// Unreadable is a first receipt the user will never see — below the
	// topic threshold or expired on arrival: the transfer was pure waste.
	Unreadable
	// Revision revised the rank of a held notification.
	Revision
	// RankDrop discarded a held notification whose rank was revised below
	// the topic threshold.
	RankDrop
	// AlreadyConsumed is a re-forward of something the user has read;
	// nothing changes.
	AlreadyConsumed
)

// NewStore returns an empty store keeping at most capacity unread
// notifications per topic (zero: unbounded) and applying threshold to topics
// that Configure never saw.
func NewStore(capacity int, threshold float64) *Store {
	return &Store{capacity: capacity, threshold: threshold, topics: make(map[string]*topicStore)}
}

func (s *Store) topic(name string) *topicStore {
	t, ok := s.topics[name]
	if !ok {
		t = &topicStore{
			q:         rankedq.NewQueue(),
			exp:       rankedq.NewExpiryIndex(),
			consumed:  make(msg.IDSet),
			threshold: s.threshold,
		}
		s.topics[name] = t
	}
	return t
}

// Configure sets a topic's rank threshold and bounds its consumed-ID memory
// by what the proxy can still ask about: the proxy remembers proxyHistory
// notifications on the topic (zero: all), so the store remembers consumed
// IDs for the last 2×proxyHistory first receipts (TestStoreAgainstProxy
// says why twice) and ResumeIDs replays at most proxyHistory of them. Call
// it before the first push of the subscription it describes.
func (s *Store) Configure(topic string, threshold float64, proxyHistory int) {
	t := s.topic(topic)
	t.threshold = threshold
	if t.window != nil && t.history == proxyHistory {
		return
	}
	old := t.window
	t.window, t.history = rankedq.NewHistory(2*proxyHistory), proxyHistory
	if old != nil {
		for _, id := range old.IDs() {
			t.admit(id)
		}
	}
}

// admit records a first receipt in the window and forgets what falls out.
func (t *topicStore) admit(id msg.ID) {
	if t.window == nil {
		return
	}
	evicted, _ := t.window.Add(id)
	for _, old := range evicted {
		t.consumed.Remove(old)
	}
}

// Accept applies one push from the proxy: a notification, or a rank revision
// under a known ID.
func (s *Store) Accept(n *msg.Notification, now time.Time) Outcome {
	t := s.topic(n.Topic)
	if t.consumed.Contains(n.ID) {
		s.Stats.Updates++
		return AlreadyConsumed
	}
	if t.q.Contains(n.ID) {
		s.Stats.Updates++
		if n.Rank < t.threshold {
			t.q.Remove(n.ID)
			t.exp.Remove(n.ID)
			s.Stats.RankDropsApplied++
			return RankDrop
		}
		t.q.UpdateRank(n.ID, n.Rank)
		return Revision
	}
	s.Stats.Received++
	if n.Rank < t.threshold || n.Expired(now) {
		s.Stats.ExpiredUnread++
		return Unreadable
	}
	t.hold(n)
	for s.capacity > 0 && t.q.Len() > s.capacity {
		victim, _ := t.q.PopWorst()
		t.exp.Remove(victim.ID)
		s.Stats.EvictedStorage++
	}
	return Fresh
}

// hold queues a notification whose ID is neither held nor consumed; Push and
// Add reject only duplicates.
func (t *topicStore) hold(n *msg.Notification) {
	t.admit(n.ID)
	_ = t.q.Push(n)
	_ = t.exp.Add(n)
}

// Expire drops the topic's unread notifications whose lifetime has run out,
// handing each to dropped when it is non-nil.
func (s *Store) Expire(topic string, now time.Time, dropped func(*msg.Notification)) {
	t, ok := s.topics[topic]
	if !ok {
		return
	}
	for {
		id, ok := t.exp.PopDue(now)
		if !ok {
			return
		}
		if n, removed := t.q.Remove(id); removed {
			s.Stats.ExpiredUnread++
			if dropped != nil {
				dropped(n)
			}
		}
	}
}

// Offer builds the §3.5 read request for up to n notifications: the IDs of
// the n best held, so the proxy transfers only better data. n == 0 is the
// paper's Max = ∞ and offers the whole queue.
func (s *Store) Offer(topic string, n int) msg.ReadRequest {
	q := s.topic(topic).q
	haveN := n
	if haveN == 0 || haveN > q.Len() {
		haveN = q.Len()
	}
	s.offer = q.AppendBestN(s.offer[:0], haveN)
	ids := make([]msg.ID, len(s.offer))
	for i, h := range s.offer {
		ids[i] = h.ID
	}
	clear(s.offer)
	return msg.ReadRequest{Topic: topic, N: n, QueueSize: q.Len(), ClientEvents: ids}
}

// Take consumes and returns the up-to-n best held notifications in rank
// order (n == 0: all of them).
func (s *Store) Take(topic string, n int) []*msg.Notification {
	t := s.topic(topic)
	if n == 0 {
		n = t.q.Len()
	}
	all := n >= t.q.Len()
	batch := t.q.TakeBestN(n)
	if all {
		// The expiry index holds only held IDs, so it empties with the queue.
		t.exp.Clear()
	} else {
		for _, b := range batch {
			t.exp.Remove(b.ID)
		}
	}
	for _, b := range batch {
		// Remembered for as long as the proxy could re-send it.
		if t.window == nil || t.window.Contains(b.ID) {
			t.consumed.Add(b.ID)
		}
	}
	s.Stats.ReadCount += len(batch)
	return batch
}

// ResumeIDs returns what a reconnecting device replays for a configured
// topic: the IDs it holds, best first, and the IDs it consumed, newest
// receipt first and no more than the proxy's forwarded set can hold.
func (s *Store) ResumeIDs(topic string) (held, consumed []msg.ID) {
	t, ok := s.topics[topic]
	if !ok || t.window == nil {
		return nil, nil
	}
	held = make([]msg.ID, 0, t.q.Len())
	for _, n := range t.q.BestN(t.q.Len()) {
		held = append(held, n.ID)
	}
	received := t.window.IDs()
	for i := len(received) - 1; i >= 0; i-- {
		if t.history > 0 && len(consumed) == t.history {
			break
		}
		if t.consumed.Contains(received[i]) {
			consumed = append(consumed, received[i])
		}
	}
	return held, consumed
}

// Peek returns copies of the up-to-n best held notifications without
// consuming them (n <= 0: all of them).
func (s *Store) Peek(topic string, n int) []*msg.Notification {
	t, ok := s.topics[topic]
	if !ok {
		return nil
	}
	if n <= 0 || n > t.q.Len() {
		n = t.q.Len()
	}
	best := t.q.BestN(n)
	out := make([]*msg.Notification, 0, len(best))
	for _, b := range best {
		out = append(out, b.Clone())
	}
	return out
}

// Import holds a notification borrowed from a peer device's cache rather
// than pushed by the proxy, and reports whether it was new and readable here.
func (s *Store) Import(n *msg.Notification, now time.Time) bool {
	t := s.topic(n.Topic)
	if t.consumed.Contains(n.ID) || t.q.Contains(n.ID) ||
		n.Expired(now) || n.Rank < t.threshold {
		return false
	}
	t.hold(n)
	s.Stats.PeerImports++
	return true
}

// MarkConsumed records IDs the user read on a sibling device: held copies
// are dropped and the IDs join the consumed memory so re-forwards are
// ignored. It returns how many held copies were released.
func (s *Store) MarkConsumed(topic string, ids []msg.ID) int {
	t := s.topic(topic)
	released := 0
	for _, id := range ids {
		t.admit(id)
		t.consumed.Add(id)
		if _, ok := t.q.Remove(id); ok {
			t.exp.Remove(id)
			released++
		}
	}
	s.Stats.PeerReleases += released
	return released
}

// QueueLen returns the number of notifications held on a topic.
func (s *Store) QueueLen(topic string) int {
	if t, ok := s.topics[topic]; ok {
		return t.q.Len()
	}
	return 0
}

// ConsumedLen returns the number of consumed IDs remembered on a topic.
func (s *Store) ConsumedLen(topic string) int {
	if t, ok := s.topics[topic]; ok {
		return t.consumed.Len()
	}
	return 0
}

// ReadSet returns a copy of the consumed IDs remembered on a topic.
func (s *Store) ReadSet(topic string) msg.IDSet {
	if t, ok := s.topics[topic]; ok {
		return t.consumed.Clone()
	}
	return make(msg.IDSet)
}

// Topics lists the topics with state, sorted.
func (s *Store) Topics() []string {
	out := make([]string, 0, len(s.topics))
	for name := range s.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
