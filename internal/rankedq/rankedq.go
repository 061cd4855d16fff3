// Package rankedq provides the queue structures used by the last-hop proxy
// algorithm: a rank-ordered queue with removal by notification ID, an
// expiration index that surfaces stale notifications in expiry order, and a
// bounded history of seen events.
//
// All structures are single-goroutine data structures: the proxy serializes
// access to them through its scheduler, so they carry no locks.
package rankedq

import (
	"fmt"
	"slices"
	"time"

	"lasthop/internal/msg"
)

// Queue is a priority queue of notifications ordered by msg.Notification
// rank order (rank descending, then publication time, then ID) that also
// supports O(log n) removal by ID, as required by the set-subtraction
// operations in the paper's Figure 7 pseudo-code.
type Queue struct {
	h queueHeap
}

// queueHeap is a binary heap of slot handles over an arena of slots. Each
// queued notification sits in a slot whose index, its handle, stays put for
// as long as it is queued, so the ID index is written only when a
// notification enters or leaves, never by a sift. The heap array lives in
// the same backing array as the arena — slots[i].heap is the handle at heap
// position i, for i < size — so one allocation grows both.
type queueHeap struct {
	slots []slot
	size  int // heap length
	// free heads the list of unused slots, linked through their pos
	// fields and ended by -1. A push reuses a freed slot before it grows
	// the arena, so a queue at steady depth allocates nothing per push.
	free  int32
	index map[msg.ID]int32 // ID → handle
}

// slot i holds the notification with handle i and its heap position, and
// the handle at heap position i.
type slot struct {
	n *msg.Notification // nil when the slot is free
	// pos is n's heap position; a free slot's pos links to the next free
	// slot.
	pos  int32
	heap int32
}

func newQueueHeap() queueHeap {
	return queueHeap{free: -1, index: make(map[msg.ID]int32)}
}

func (q *queueHeap) Len() int { return q.size }

// at returns the notification at heap position i.
func (q *queueHeap) at(i int) *msg.Notification { return q.slots[q.slots[i].heap].n }

// place puts handle h at heap position i.
func (q *queueHeap) place(i int, h int32) {
	q.slots[i].heap = h
	q.slots[h].pos = int32(i)
}

// The sifts below are hole-based rather than swap-based: the handle being
// placed is held aside while ancestors or children slide into the hole, so
// each displaced handle is stored once and its slot's pos rewritten once —
// two array stores per level, where a heap of notifications indexed by ID
// would hash the ID and write a map entry per level.

// siftUp places handle h starting from the hole at i, sliding ancestors down.
func (q *queueHeap) siftUp(i int, h int32) {
	n := q.slots[h].n
	for i > 0 {
		parent := (i - 1) / 2
		ph := q.slots[parent].heap
		if !n.Before(q.slots[ph].n) {
			break
		}
		q.place(i, ph)
		i = parent
	}
	q.place(i, h)
}

// siftDown places handle h starting from the hole at i, sliding the best
// child up.
func (q *queueHeap) siftDown(i int, h int32) {
	n := q.slots[h].n
	for {
		child := 2*i + 1
		if child >= q.size {
			break
		}
		ch := q.slots[child].heap
		if r := child + 1; r < q.size {
			if rh := q.slots[r].heap; q.slots[rh].n.Before(q.slots[ch].n) {
				child, ch = r, rh
			}
		}
		if !q.slots[ch].n.Before(n) {
			break
		}
		q.place(i, ch)
		i = child
	}
	q.place(i, h)
}

// fix places handle h into the hole at i, restoring heap order in
// whichever direction it violates it.
func (q *queueHeap) fix(i int, h int32) {
	if i > 0 && q.slots[h].n.Before(q.at((i-1)/2)) {
		q.siftUp(i, h)
		return
	}
	q.siftDown(i, h)
}

func (q *queueHeap) push(n *msg.Notification) {
	h := q.free
	if h >= 0 {
		q.free = q.slots[h].pos
		q.slots[h].n = n
	} else {
		// Every slot is in use, so the arena is exactly as long as the heap
		// and the new slot also holds the heap's new last position.
		h = int32(len(q.slots))
		if q.slots == nil {
			// A queue released by a whole-queue take regrows from nil on
			// every refill; skipping append's one- and two-slot steps saves
			// two allocations each time.
			q.slots = make([]slot, 0, 4)
		}
		q.slots = append(q.slots, slot{n: n})
	}
	q.index[n.ID] = h
	q.size++
	q.siftUp(q.size-1, h)
}

// removeAt deletes the item at heap position i, refilling the hole with the
// last handle, frees its slot and applies the memory rule.
func (q *queueHeap) removeAt(i int) *msg.Notification {
	h := q.slots[i].heap
	n := q.slots[h].n
	delete(q.index, n.ID)
	q.slots[h].n, q.slots[h].pos = nil, q.free
	q.free = h
	q.size--
	if last := q.size; i < last {
		q.fix(i, q.slots[last].heap)
	}
	q.maybeShrink()
	return n
}

// shrinkFloor is the smallest arena capacity worth releasing: queues that
// never grew past it keep their arena forever.
const shrinkFloor = 64

// maybeShrink releases the arena and the index map (which Go never shrinks
// on its own) once the queue drains below a quarter of the arena's
// capacity, so a burst does not pin its high-water memory for the rest of
// the session. The new capacity is half the old one — still at least twice
// the live length — so push/pop traffic around the boundary cannot thrash.
// The compacted arena numbers its slots in heap order and has none free.
func (q *queueHeap) maybeShrink() {
	c := cap(q.slots)
	if c < shrinkFloor || q.size > c/4 {
		return
	}
	slots := make([]slot, q.size, c/2)
	index := make(map[msg.ID]int32, q.size)
	for i := range slots {
		n := q.at(i)
		slots[i] = slot{n: n, pos: int32(i), heap: int32(i)}
		index[n.ID] = int32(i)
	}
	q.slots, q.free, q.index = slots, -1, index
}

// notes returns the queued notifications in heap order, in a new slice.
func (q *queueHeap) notes() []*msg.Notification {
	out := make([]*msg.Notification, q.size)
	for i := range out {
		out[i] = q.at(i)
	}
	return out
}

// takeAll empties the heap and returns its items in rank order: one sort
// instead of a pop per item. Memory follows maybeShrink's rule: a queue
// whose arena grew past shrinkFloor keeps neither it nor its index map; a
// smaller one keeps both for the next arrivals.
func (q *queueHeap) takeAll() []*msg.Notification {
	out := q.notes()
	if cap(q.slots) < shrinkFloor {
		clear(q.slots)
		q.slots, q.size, q.free = q.slots[:0], 0, -1
		clear(q.index)
	} else {
		*q = newQueueHeap()
	}
	slices.SortFunc(out, (*msg.Notification).Compare)
	return out
}

// topN returns the n best items, n < Len, in pop order without moving any.
// The next item in pop order is the root or a child of an item already
// taken, so a small heap of candidate positions seeded with the root yields
// them one by one: take its best, then add that position's two children.
// Before is a total order, so the result is exactly what n pops would give.
func (q *queueHeap) topN(n int) []*msg.Notification {
	out := make([]*msg.Notification, 0, n)
	var buf [32]int32 // the frontier holds at most n+1 positions
	front := append(buf[:0], 0)
	for len(out) < n {
		p := front[0]
		out = append(out, q.at(int(p)))
		last := len(front) - 1
		moved := front[last]
		front = front[:last]
		if last > 0 {
			q.frontDown(front, moved)
		}
		for c := 2*p + 1; c <= 2*p+2 && int(c) < q.size; c++ {
			front = append(front, c)
			q.frontUp(front)
		}
	}
	return out
}

// frontUp sifts the last candidate of topN's frontier up into place.
func (q *queueHeap) frontUp(f []int32) {
	i := len(f) - 1
	p := f[i]
	n := q.at(int(p))
	for i > 0 {
		parent := (i - 1) / 2
		if !n.Before(q.at(int(f[parent]))) {
			break
		}
		f[i] = f[parent]
		i = parent
	}
	f[i] = p
}

// frontDown places candidate p into the hole at the root of topN's
// frontier, sliding the better child up.
func (q *queueHeap) frontDown(f []int32, p int32) {
	n := q.at(int(p))
	i := 0
	for {
		child := 2*i + 1
		if child >= len(f) {
			break
		}
		if r := child + 1; r < len(f) && q.at(int(f[r])).Before(q.at(int(f[child]))) {
			child = r
		}
		if !q.at(int(f[child])).Before(n) {
			break
		}
		f[i] = f[child]
		i = child
	}
	f[i] = p
}

// NewQueue returns an empty rank-ordered queue.
func NewQueue() *Queue {
	return &Queue{h: newQueueHeap()}
}

// Len returns the number of queued notifications.
func (q *Queue) Len() int { return q.h.Len() }

// Contains reports whether a notification with the given ID is queued.
func (q *Queue) Contains(id msg.ID) bool {
	_, ok := q.h.index[id]
	return ok
}

// Get returns the queued notification with the given ID, if any.
func (q *Queue) Get(id msg.ID) (*msg.Notification, bool) {
	h, ok := q.h.index[id]
	if !ok {
		return nil, false
	}
	return q.h.slots[h].n, true
}

// Push inserts a notification. Inserting a duplicate ID is an error: the
// proxy must use UpdateRank to revise a queued notification.
func (q *Queue) Push(n *msg.Notification) error {
	if n == nil {
		return fmt.Errorf("push nil notification")
	}
	if _, ok := q.h.index[n.ID]; ok {
		return fmt.Errorf("duplicate notification %q", n.ID)
	}
	q.h.push(n)
	return nil
}

// PeekBest returns the highest-ranked notification without removing it.
func (q *Queue) PeekBest() (*msg.Notification, bool) {
	if q.h.Len() == 0 {
		return nil, false
	}
	return q.h.at(0), true
}

// PopBest removes and returns the highest-ranked notification.
func (q *Queue) PopBest() (*msg.Notification, bool) {
	if q.h.Len() == 0 {
		return nil, false
	}
	return q.h.removeAt(0), true
}

// Remove deletes the notification with the given ID, returning it if it was
// queued. This implements the pseudo-code's "queue \ event" subtraction.
func (q *Queue) Remove(id msg.ID) (*msg.Notification, bool) {
	h, ok := q.h.index[id]
	if !ok {
		return nil, false
	}
	return q.h.removeAt(int(q.h.slots[h].pos)), true
}

// UpdateRank revises the rank of a queued notification in place and
// restores heap order. It reports whether the notification was queued.
func (q *Queue) UpdateRank(id msg.ID, rank float64) bool {
	h, ok := q.h.index[id]
	if !ok {
		return false
	}
	q.h.slots[h].n.Rank = rank
	q.h.fix(int(q.h.slots[h].pos), h)
	return true
}

// BestN returns the up-to-n highest-ranked notifications in rank order
// without removing them or moving anything in the heap. With n <= 0 it
// returns nil. A partial read walks the top of the heap in O(n log n),
// which matters because the proxy calls it on every user read against
// queues that can hold a year of backlog; a read of the whole queue sorts a
// copy.
func (q *Queue) BestN(n int) []*msg.Notification {
	if n <= 0 || q.h.Len() == 0 {
		return nil
	}
	if n >= q.h.Len() {
		out := q.h.notes()
		slices.SortFunc(out, (*msg.Notification).Compare)
		return out
	}
	return q.h.topN(n)
}

// TakeBestN removes and returns the up-to-n highest-ranked notifications in
// rank order. Taking the whole queue sorts it once instead of popping it.
func (q *Queue) TakeBestN(n int) []*msg.Notification {
	if n <= 0 {
		return nil
	}
	if n >= q.h.Len() {
		return q.h.takeAll()
	}
	out := make([]*msg.Notification, 0, n)
	for len(out) < n {
		out = append(out, q.h.removeAt(0))
	}
	return out
}

// PopWorst removes and returns the lowest-ranked notification. It is a
// linear scan: devices evict under storage pressure rarely, and the queue
// is optimized for best-first access.
func (q *Queue) PopWorst() (*msg.Notification, bool) {
	if q.h.Len() == 0 {
		return nil, false
	}
	worst := 0
	for i := 1; i < q.h.Len(); i++ {
		if q.h.at(worst).Before(q.h.at(i)) {
			worst = i
		}
	}
	return q.h.removeAt(worst), true
}

// IDs returns the IDs of all queued notifications in unspecified order.
func (q *Queue) IDs() []msg.ID {
	ids := make([]msg.ID, 0, q.h.Len())
	for i := range q.h.size {
		ids = append(ids, q.h.at(i).ID)
	}
	return ids
}

// IDSet returns the queued IDs as a set.
func (q *Queue) IDSet() msg.IDSet {
	s := make(msg.IDSet, q.h.Len())
	for i := range q.h.size {
		s.Add(q.h.at(i).ID)
	}
	return s
}

// Each calls fn for every queued notification in unspecified order. The
// callback must not mutate the queue.
func (q *Queue) Each(fn func(*msg.Notification)) {
	for i := range q.h.size {
		fn(q.h.at(i))
	}
}

// Clear removes all queued notifications.
func (q *Queue) Clear() {
	q.h = newQueueHeap()
}

// ExpiryIndex tracks expirable notifications in a min-heap keyed by
// expiration instant, so the proxy can expire them with a single scheduled
// timeout per earliest deadline rather than one timer per event.
type ExpiryIndex struct {
	h expiryHeap
}

type expiryEntry struct {
	id      msg.ID
	expires time.Time
}

type expiryHeap struct {
	entries []expiryEntry
	index   map[msg.ID]int
}

// The heap is maintained by hand rather than through container/heap, whose
// Push and Pop box every entry into an interface: an index entry is added
// and removed once per notification a device holds, and that was two
// allocations each. Its sifts are hole-based like queueHeap's, so each
// displaced entry's index entry is written once per level, not twice.

func (h *expiryHeap) Len() int { return len(h.entries) }

func (e expiryEntry) before(o expiryEntry) bool {
	if c := e.expires.Compare(o.expires); c != 0 {
		return c < 0
	}
	return e.id < o.id
}

// up places e starting from the hole at i, sliding ancestors down.
func (h *expiryHeap) up(i int, e expiryEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.entries[parent]
		if !e.before(p) {
			break
		}
		h.entries[i] = p
		h.index[p.id] = i
		i = parent
	}
	h.entries[i] = e
	h.index[e.id] = i
}

// down places e starting from the hole at i, sliding the earlier child up.
func (h *expiryHeap) down(i int, e expiryEntry) {
	size := len(h.entries)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && h.entries[r].before(h.entries[child]) {
			child = r
		}
		c := h.entries[child]
		if !c.before(e) {
			break
		}
		h.entries[i] = c
		h.index[c.id] = i
		i = child
	}
	h.entries[i] = e
	h.index[e.id] = i
}

func (h *expiryHeap) push(e expiryEntry) {
	h.entries = append(h.entries, expiryEntry{})
	h.up(len(h.entries)-1, e)
}

// removeAt deletes the entry at i, refilling the hole with the last entry.
func (h *expiryHeap) removeAt(i int) expiryEntry {
	e := h.entries[i]
	delete(h.index, e.id)
	last := len(h.entries) - 1
	moved := h.entries[last]
	h.entries[last] = expiryEntry{}
	h.entries = h.entries[:last]
	if i < last {
		if i > 0 && moved.before(h.entries[(i-1)/2]) {
			h.up(i, moved)
		} else {
			h.down(i, moved)
		}
	}
	return e
}

// NewExpiryIndex returns an empty expiration index.
func NewExpiryIndex() *ExpiryIndex {
	return &ExpiryIndex{h: expiryHeap{index: make(map[msg.ID]int)}}
}

// Len returns the number of indexed notifications.
func (x *ExpiryIndex) Len() int { return x.h.Len() }

// Add indexes a notification's expiration. Notifications that never expire
// are ignored. Adding an already-indexed ID is an error.
func (x *ExpiryIndex) Add(n *msg.Notification) error {
	if n.NeverExpires() {
		return nil
	}
	if _, ok := x.h.index[n.ID]; ok {
		return fmt.Errorf("duplicate expiry entry %q", n.ID)
	}
	x.h.push(expiryEntry{id: n.ID, expires: n.Expires})
	return nil
}

// Remove drops the entry for the given ID, reporting whether it existed.
func (x *ExpiryIndex) Remove(id msg.ID) bool {
	i, ok := x.h.index[id]
	if !ok {
		return false
	}
	x.h.removeAt(i)
	return true
}

// Clear drops every entry. Like Remove, it keeps the backing storage.
func (x *ExpiryIndex) Clear() {
	clear(x.h.entries)
	x.h.entries = x.h.entries[:0]
	clear(x.h.index)
}

// NextExpiry returns the earliest indexed expiration instant.
func (x *ExpiryIndex) NextExpiry() (time.Time, bool) {
	if x.h.Len() == 0 {
		return time.Time{}, false
	}
	return x.h.entries[0].expires, true
}

// PopDue removes and returns the earliest-expiring notification's ID if its
// expiration instant is at or before now. Repeated calls drain every due
// entry in (expiry, ID) order without allocating.
func (x *ExpiryIndex) PopDue(now time.Time) (msg.ID, bool) {
	if x.h.Len() == 0 || x.h.entries[0].expires.After(now) {
		return msg.NoID, false
	}
	return x.h.removeAt(0).id, true
}

// Contains reports whether the ID is indexed.
func (x *ExpiryIndex) Contains(id msg.ID) bool {
	_, ok := x.h.index[id]
	return ok
}

// IDs returns the indexed IDs in unspecified order.
func (x *ExpiryIndex) IDs() []msg.ID {
	if x.h.Len() == 0 {
		return nil
	}
	ids := make([]msg.ID, len(x.h.entries))
	for i, e := range x.h.entries {
		ids[i] = e.id
	}
	return ids
}

// History is the bounded, insertion-ordered record of events a topic has
// seen (the pseudo-code's topic.history). The paper notes that the history
// "grows without bounds" and leaves garbage collection unimplemented; here
// a capacity bound evicts the oldest entries.
type History struct {
	capacity int
	order    []msg.ID
	head     int
	set      msg.IDSet
	// evictScratch backs Add's evicted return value so the steady-state
	// add-evict cycle does not allocate a slice per insertion.
	evictScratch []msg.ID
}

// NewHistory returns a history bounded to the given capacity; capacity <= 0
// means unbounded.
func NewHistory(capacity int) *History {
	return &History{capacity: capacity, set: make(msg.IDSet)}
}

// Len returns the number of remembered IDs.
func (h *History) Len() int { return len(h.set) }

// Contains reports whether the ID is remembered.
func (h *History) Contains(id msg.ID) bool { return h.set.Contains(id) }

// Add remembers an ID, evicting the oldest entries beyond capacity. It
// returns the evicted IDs (usually empty) and whether id was new. The
// evicted slice is reused by the next Add: consume it before then.
func (h *History) Add(id msg.ID) (evicted []msg.ID, added bool) {
	if h.set.Contains(id) {
		return nil, false
	}
	h.set.Add(id)
	h.order = append(h.order, id)
	if h.capacity > 0 {
		evicted = h.evictScratch[:0]
		for len(h.set) > h.capacity {
			old := h.order[h.head]
			h.order[h.head] = msg.NoID
			h.head++
			if h.set.Remove(old) {
				evicted = append(evicted, old)
			}
		}
		h.compact()
		h.evictScratch = evicted[:0]
	}
	return evicted, true
}

// Remove forgets an ID, reporting whether it was remembered. The order
// slot is lazily reclaimed.
func (h *History) Remove(id msg.ID) bool {
	if !h.set.Remove(id) {
		return false
	}
	return true
}

// compact reclaims the consumed prefix of the order slice once it dominates
// the backing array, keeping Add amortized O(1). The shift is in place so
// the steady-state add-evict cycle reuses one backing array instead of
// reallocating it every half-rotation; the vacated tail is cleared so
// evicted IDs do not pin their strings.
func (h *History) compact() {
	if h.head > len(h.order)/2 && h.head > 32 {
		n := copy(h.order, h.order[h.head:])
		tail := h.order[n:]
		for i := range tail {
			tail[i] = msg.NoID
		}
		h.order = h.order[:n]
		h.head = 0
	}
}

// IDs returns the remembered IDs in insertion order, oldest first.
// Re-Adding them in this order into a fresh History of the same capacity
// reproduces the eviction state exactly.
func (h *History) IDs() []msg.ID {
	// Walk backward so an ID Removed and later re-Added surfaces at its
	// newest insertion slot, not its stale one, then reverse into
	// insertion order.
	out := make([]msg.ID, 0, len(h.set))
	seen := make(msg.IDSet, len(h.set))
	for i := len(h.order) - 1; i >= h.head; i-- {
		id := h.order[i]
		if id != msg.NoID && h.set.Contains(id) && seen.Add(id) {
			out = append(out, id)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Oldest returns the oldest remembered ID, if any.
func (h *History) Oldest() (msg.ID, bool) {
	for i := h.head; i < len(h.order); i++ {
		id := h.order[i]
		if id != msg.NoID && h.set.Contains(id) {
			return id, true
		}
	}
	return msg.NoID, false
}
