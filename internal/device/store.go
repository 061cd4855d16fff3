package device

import (
	"slices"
	"sort"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/rankedq"
)

// Store is the device-side notification cache: per topic the ranked queue
// of unread notifications (§2.3, bounded with low-rank eviction), their
// expiry order, and the memory of consumed IDs that §3.5 reads and session
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
	best      []int32 // handles in rank order: Offer's, Take's, Peek's and ResumeIDs' scratch
}

// topicStore is one topic's state: a single table from ID to cell. The
// held notifications sit in the arena, ordered by rank in held and by
// deadline in exp; consumed counts the cells marked consumed.
type topicStore struct {
	ids       map[msg.ID]cell
	arena     rankedq.Arena
	held      rankedq.Heap
	exp       rankedq.ExpiryHeap
	consumed  int
	threshold float64
	// window, when windowed, holds the topic's first receipts in order, a
	// ring of at most 2×history IDs (unbounded when history is zero) whose
	// oldest sits at head once it is full. It bounds the consumed memory: an
	// ID leaving it is forgotten unless it is held. A topic that was never
	// configured has none and remembers forever — the simulator compares
	// whole-run read sets.
	windowed bool
	history  int
	window   []msg.ID
	head     int
}

// cell is an ID's entry in its topic's table: two bits and, above them, the
// handle of its arena slot plus one while it is held (zero when not). Only
// held IDs have a slot, so a consumed ID costs its map entry and no more.
type cell int32

const (
	windowBit   cell = 1 << iota // among the window's first receipts
	consumedBit                  // read by the user; never set while held
	slotUnit                     // one handle above the bits
)

func (c cell) held() bool    { return c >= slotUnit }
func (c cell) handle() int32 { return int32(c/slotUnit) - 1 }
func (c cell) unheld() cell  { return c % slotUnit }

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
		t = &topicStore{ids: make(map[msg.ID]cell), arena: rankedq.NewArena(), threshold: s.threshold}
		t.held = rankedq.NewHeap(&t.arena.Slots)
		t.exp = rankedq.NewExpiryHeap(&t.arena.Slots)
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
	if t.windowed && t.history == proxyHistory {
		return
	}
	order := append(t.window[t.head:len(t.window):len(t.window)], t.window[:t.head]...)
	if limit := 2 * proxyHistory; limit > 0 && len(order) > limit {
		for _, id := range order[:len(order)-limit] {
			t.leave(id)
		}
		order = order[len(order)-limit:]
	}
	t.windowed, t.history, t.window, t.head = true, proxyHistory, order, 0
}

// admit records a first receipt of the ID with cell c in the window, unless
// it is there already, forgets what falls out, and returns the new cell.
func (t *topicStore) admit(id msg.ID, c cell) cell {
	if !t.windowed || c&windowBit != 0 {
		return c
	}
	if limit := 2 * t.history; limit <= 0 || len(t.window) < limit {
		t.window = append(t.window, id)
	} else {
		t.leave(t.window[t.head])
		t.window[t.head] = id
		t.head = (t.head + 1) % limit
	}
	return c | windowBit
}

// leave takes an ID out of the window, and its consumed mark with it.
func (t *topicStore) leave(id msg.ID) {
	c := t.ids[id]
	if c&consumedBit != 0 {
		t.consumed--
	}
	t.settle(id, c&^(windowBit|consumedBit))
}

// settle stores an ID's cell, or deletes it once it says nothing.
func (t *topicStore) settle(id msg.ID, c cell) {
	if c == 0 {
		delete(t.ids, id)
	} else {
		t.ids[id] = c
	}
}

// hold queues a notification whose ID, with cell c, is neither held nor
// consumed.
func (t *topicStore) hold(n *msg.Notification, c cell) {
	c = t.admit(n.ID, c)
	h := t.arena.Add(n)
	t.held.Push(h)
	if !n.NeverExpires() {
		t.exp.Push(h)
	}
	t.ids[n.ID] = c | cell(h+1)*slotUnit
}

// drop takes the held notification h off both heaps and frees its slot;
// the caller settles its cell.
func (t *topicStore) drop(h int32) *msg.Notification {
	n := t.arena.Slots[h].N
	t.held.Remove(h)
	if !n.NeverExpires() {
		t.exp.Remove(h)
	}
	t.free(h)
	return n
}

// free releases slot h, which has left both heaps; once nothing is held
// the whole arena goes.
func (t *topicStore) free(h int32) {
	t.arena.Release(h)
	if t.held.Len() == 0 {
		t.arena.Reset()
	}
}

// worst returns the handle of the lowest-ranked held notification. It is a
// linear scan: devices evict under storage pressure rarely, and the heap
// is ordered for best-first access.
func (t *topicStore) worst() int32 {
	w := int32(-1)
	for h, sl := range t.arena.Slots {
		if sl.N != nil && (w < 0 || t.arena.Slots[w].N.Before(sl.N)) {
			w = int32(h)
		}
	}
	return w
}

// Accept applies one push from the proxy: a notification, or a rank revision
// under a known ID.
func (s *Store) Accept(n *msg.Notification, now time.Time) Outcome {
	t := s.topic(n.Topic)
	c := t.ids[n.ID]
	if c&consumedBit != 0 {
		s.Stats.Updates++
		return AlreadyConsumed
	}
	if c.held() {
		s.Stats.Updates++
		if n.Rank < t.threshold {
			t.drop(c.handle())
			t.settle(n.ID, c.unheld())
			s.Stats.RankDropsApplied++
			return RankDrop
		}
		t.arena.Slots[c.handle()].N.Rank = n.Rank
		t.held.Fix(c.handle())
		return Revision
	}
	s.Stats.Received++
	if n.Rank < t.threshold || n.Expired(now) {
		s.Stats.ExpiredUnread++
		return Unreadable
	}
	t.hold(n, c)
	for s.capacity > 0 && t.held.Len() > s.capacity {
		victim := t.drop(t.worst())
		t.settle(victim.ID, t.ids[victim.ID].unheld())
		s.Stats.EvictedStorage++
	}
	return Fresh
}

// Expire drops the topic's unread notifications whose lifetime has run out,
// handing each to dropped when it is non-nil.
func (s *Store) Expire(topic string, now time.Time, dropped func(*msg.Notification)) {
	t, ok := s.topics[topic]
	if !ok {
		return
	}
	for {
		h, ok := t.exp.PopDue(now)
		if !ok {
			return
		}
		n := t.arena.Slots[h].N
		t.held.Remove(h)
		t.free(h)
		t.settle(n.ID, t.ids[n.ID].unheld())
		s.Stats.ExpiredUnread++
		if dropped != nil {
			dropped(n)
		}
	}
}

// bestIDs appends the IDs of the up-to-n best held notifications to dst in
// rank order.
func (s *Store) bestIDs(dst []msg.ID, t *topicStore, n int) []msg.ID {
	s.best = t.held.AppendBest(s.best[:0], n)
	for _, h := range s.best {
		dst = append(dst, t.arena.Slots[h].N.ID)
	}
	return dst
}

// Offer builds the §3.5 read request for up to n notifications: the IDs of
// the n best held, so the proxy transfers only better data. n == 0 is the
// paper's Max = ∞ and offers the whole queue. The IDs are appended to dst,
// and ClientEvents is the result: a caller that passes a buffer it reuses
// owns the request only until its next Offer.
func (s *Store) Offer(dst []msg.ID, topic string, n int) msg.ReadRequest {
	t := s.topic(topic)
	haveN := n
	if haveN == 0 || haveN > t.held.Len() {
		haveN = t.held.Len()
	}
	ids := s.bestIDs(slices.Grow(dst, max(haveN, 0)), t, haveN)
	return msg.ReadRequest{Topic: topic, N: n, QueueSize: t.held.Len(), ClientEvents: ids}
}

// Take consumes the up-to-n best held notifications (n == 0: all of them)
// and appends them to dst in rank order.
func (s *Store) Take(dst []*msg.Notification, topic string, n int) []*msg.Notification {
	t := s.topic(topic)
	if n == 0 {
		n = t.held.Len()
	}
	if n <= 0 || t.held.Len() == 0 {
		return dst
	}
	s.best = t.held.AppendBest(s.best[:0], n)
	start := len(dst)
	dst = slices.Grow(dst, len(s.best))
	for _, h := range s.best {
		dst = append(dst, t.arena.Slots[h].N)
	}
	batch := dst[start:]
	if len(batch) == t.held.Len() {
		// The expiry heap holds only held handles, so it empties with the
		// rank heap, and the arena with both.
		t.held.Clear()
		t.exp.Clear()
		t.arena.Reset()
	} else {
		for _, h := range s.best {
			t.drop(h)
		}
	}
	for _, b := range batch {
		c := t.ids[b.ID].unheld()
		// Remembered for as long as the proxy could re-send it.
		if !t.windowed || c&windowBit != 0 {
			c |= consumedBit
			t.consumed++
		}
		t.settle(b.ID, c)
	}
	s.Stats.ReadCount += len(batch)
	return dst
}

// ResumeIDs returns what a reconnecting device replays for a configured
// topic: the IDs it holds, best first, and the IDs it consumed, newest
// receipt first and no more than the proxy's forwarded set can hold.
func (s *Store) ResumeIDs(topic string) (held, consumed []msg.ID) {
	t, ok := s.topics[topic]
	if !ok || !t.windowed {
		return nil, nil
	}
	held = s.bestIDs(make([]msg.ID, 0, t.held.Len()), t, t.held.Len())
	for i := len(t.window) - 1; i >= 0; i-- {
		if t.history > 0 && len(consumed) == t.history {
			break
		}
		if id := t.window[(t.head+i)%len(t.window)]; t.ids[id]&consumedBit != 0 {
			consumed = append(consumed, id)
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
	if n <= 0 || n > t.held.Len() {
		n = t.held.Len()
	}
	s.best = t.held.AppendBest(s.best[:0], n)
	out := make([]*msg.Notification, 0, len(s.best))
	for _, h := range s.best {
		out = append(out, t.arena.Slots[h].N.Clone())
	}
	return out
}

// Import holds a notification borrowed from a peer device's cache rather
// than pushed by the proxy, and reports whether it was new and readable here.
func (s *Store) Import(n *msg.Notification, now time.Time) bool {
	t := s.topic(n.Topic)
	c := t.ids[n.ID]
	if c&consumedBit != 0 || c.held() || n.Expired(now) || n.Rank < t.threshold {
		return false
	}
	t.hold(n, c)
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
		c := t.admit(id, t.ids[id])
		if c.held() {
			t.drop(c.handle())
			c = c.unheld()
			released++
		}
		if c&consumedBit == 0 {
			c |= consumedBit
			t.consumed++
		}
		t.settle(id, c)
	}
	s.Stats.PeerReleases += released
	return released
}

// QueueLen returns the number of notifications held on a topic.
func (s *Store) QueueLen(topic string) int {
	if t, ok := s.topics[topic]; ok {
		return t.held.Len()
	}
	return 0
}

// ConsumedLen returns the number of consumed IDs remembered on a topic.
func (s *Store) ConsumedLen(topic string) int {
	if t, ok := s.topics[topic]; ok {
		return t.consumed
	}
	return 0
}

// ReadSet returns a copy of the consumed IDs remembered on a topic.
func (s *Store) ReadSet(topic string) msg.IDSet {
	t, ok := s.topics[topic]
	if !ok {
		return make(msg.IDSet)
	}
	out := make(msg.IDSet, t.consumed)
	for id, c := range t.ids {
		if c&consumedBit != 0 {
			out.Add(id)
		}
	}
	return out
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
