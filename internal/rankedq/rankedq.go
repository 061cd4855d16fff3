// Package rankedq provides the queue structures used by the last-hop proxy
// algorithm: a rank-ordered queue with removal by notification ID, an
// expiration index that surfaces stale notifications in expiry order, and a
// bounded history of seen events.
//
// Queue and ExpiryIndex are keyed by notification ID. Each wraps a
// handle-keyed form, Heap and ExpiryHeap, which owns no ID index: its
// entries are handles into an arena of Slots that the caller owns and may
// share between several of them, as the proxy's per-topic table does.
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

// Slot is one notification's place in an arena. Its index in the arena is
// the notification's handle; the Heap and the ExpiryHeap that hold the
// handle record its position in them here, so removal by handle needs no
// lookup and a sift writes two array entries per level, not a map entry.
// A handle sits in at most one Heap of an arena at a time.
type Slot struct {
	N    *msg.Notification
	pos  int32 // position in the Heap holding it; links a free slot
	xpos int32 // position in the ExpiryHeap holding it
}

// Heap is a binary heap of handles into an arena of Slots, ordered by
// msg.Notification rank order (rank descending, then publication time,
// then ID), with O(log n) removal and rank revision by handle.
type Heap struct {
	arena *[]Slot
	heap  []int32 // handles in heap order
}

// NewHeap returns an empty heap over the arena *arena; the arena may grow
// and move while the heap is in use.
func NewHeap(arena *[]Slot) Heap { return Heap{arena: arena} }

// Len returns the number of handles in the heap.
func (q *Heap) Len() int { return len(q.heap) }

// at returns the notification at heap position i.
func (q *Heap) at(i int) *msg.Notification { return (*q.arena)[q.heap[i]].N }

// place puts handle h at heap position i.
func (q *Heap) place(i int, h int32) {
	q.heap[i] = h
	(*q.arena)[h].pos = int32(i)
}

// The sifts below are hole-based rather than swap-based: the handle being
// placed is held aside while ancestors or children slide into the hole, so
// each displaced handle is stored once and its slot's pos rewritten once —
// two array stores per level, where a heap of notifications indexed by ID
// would hash the ID and write a map entry per level.

// siftUp places handle h starting from the hole at i, sliding ancestors down.
func (q *Heap) siftUp(i int, h int32) {
	slots := *q.arena
	n := slots[h].N
	for i > 0 {
		parent := (i - 1) / 2
		ph := q.heap[parent]
		if !n.Before(slots[ph].N) {
			break
		}
		q.place(i, ph)
		i = parent
	}
	q.place(i, h)
}

// siftDown places handle h starting from the hole at i, sliding the best
// child up.
func (q *Heap) siftDown(i int, h int32) {
	slots := *q.arena
	n := slots[h].N
	size := len(q.heap)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		ch := q.heap[child]
		if r := child + 1; r < size {
			if rh := q.heap[r]; slots[rh].N.Before(slots[ch].N) {
				child, ch = r, rh
			}
		}
		if !slots[ch].N.Before(n) {
			break
		}
		q.place(i, ch)
		i = child
	}
	q.place(i, h)
}

// fix places handle h into the hole at i, restoring heap order in
// whichever direction it violates it.
func (q *Heap) fix(i int, h int32) {
	if i > 0 && (*q.arena)[h].N.Before(q.at((i-1)/2)) {
		q.siftUp(i, h)
		return
	}
	q.siftDown(i, h)
}

// Push adds handle h, whose slot holds a notification.
func (q *Heap) Push(h int32) {
	if q.heap == nil {
		// A heap released by a whole-queue take regrows from nil on every
		// refill; skipping append's one- and two-entry steps saves two
		// allocations each time.
		q.heap = make([]int32, 0, 4)
	}
	q.heap = append(q.heap, 0)
	q.siftUp(len(q.heap)-1, h)
}

// removeAt deletes the handle at heap position i, refilling the hole with
// the last handle, and applies the memory rule.
func (q *Heap) removeAt(i int) int32 {
	h := q.heap[i]
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i < last {
		q.fix(i, moved)
	}
	if c := cap(q.heap); c >= shrinkFloor && last <= c/4 {
		q.heap = append(make([]int32, 0, c/2), q.heap...)
	}
	return h
}

// shrinkFloor is the smallest capacity worth releasing: heaps and arenas
// that never grew past it keep their backing array forever. Past it, a heap
// that drains below a quarter of its capacity moves to half of it — still
// at least twice the live length, so push/pop traffic around the boundary
// cannot thrash — and a burst does not pin its high-water memory for the
// rest of the session.
const shrinkFloor = 64

// Remove deletes handle h from the heap.
func (q *Heap) Remove(h int32) { q.removeAt(int((*q.arena)[h].pos)) }

// Fix restores heap order after the rank of h's notification changed.
func (q *Heap) Fix(h int32) { q.fix(int((*q.arena)[h].pos), h) }

// PopBest removes and returns the handle of the highest-ranked
// notification.
func (q *Heap) PopBest() (int32, bool) {
	if len(q.heap) == 0 {
		return -1, false
	}
	return q.removeAt(0), true
}

// AppendBest appends the handles of the up-to-n highest-ranked
// notifications to dst in rank order, without moving anything in the heap.
// A partial read walks the top of the heap in O(n log n), which matters
// because the proxy calls it on every user read against queues that can
// hold a year of backlog; a read of the whole heap sorts a copy.
func (q *Heap) AppendBest(dst []int32, n int) []int32 {
	if n <= 0 || len(q.heap) == 0 {
		return dst
	}
	if n < len(q.heap) {
		return q.topN(dst, n)
	}
	start := len(dst)
	dst = append(dst, q.heap...)
	slots := *q.arena
	slices.SortFunc(dst[start:], func(a, b int32) int { return slots[a].N.Compare(slots[b].N) })
	return dst
}

// topN appends the handles of the n best items, n < Len, in pop order
// without moving any. The next item in pop order is the root or a child of
// an item already taken, so a small heap of candidate positions seeded
// with the root yields them one by one: take its best, then add that
// position's two children. Before is a total order, so the result is
// exactly what n pops would give.
func (q *Heap) topN(dst []int32, n int) []int32 {
	var buf [32]int32 // the frontier holds at most n+1 positions
	front := append(buf[:0], 0)
	for end := len(dst) + n; len(dst) < end; {
		p := front[0]
		dst = append(dst, q.heap[p])
		last := len(front) - 1
		moved := front[last]
		front = front[:last]
		if last > 0 {
			q.frontDown(front, moved)
		}
		for c := 2*p + 1; c <= 2*p+2 && int(c) < len(q.heap); c++ {
			front = append(front, c)
			q.frontUp(front)
		}
	}
	return dst
}

// frontUp sifts the last candidate of topN's frontier up into place.
func (q *Heap) frontUp(f []int32) {
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
func (q *Heap) frontDown(f []int32, p int32) {
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

// IDs returns the IDs of the heap's notifications in heap order.
func (q *Heap) IDs() []msg.ID {
	ids := make([]msg.ID, len(q.heap))
	for i := range ids {
		ids[i] = q.at(i).ID
	}
	return ids
}

// idArena is what the ID-keyed forms add to the handle-keyed ones: an
// arena of their own, whose freed slots form a list linked through pos and
// ended by -1 (so a structure at steady size allocates nothing per add),
// and the index from ID to handle.
type idArena struct {
	slots []Slot
	free  int32
	index map[msg.ID]int32
}

func newIDArena() idArena { return idArena{free: -1, index: make(map[msg.ID]int32)} }

// add puts n in a free slot, or a new one, and indexes it.
func (a *idArena) add(n *msg.Notification) int32 {
	h := a.free
	if h >= 0 {
		a.free = a.slots[h].pos
		a.slots[h] = Slot{N: n}
	} else {
		h = int32(len(a.slots))
		if a.slots == nil {
			a.slots = make([]Slot, 0, 4)
		}
		a.slots = append(a.slots, Slot{N: n})
	}
	a.index[n.ID] = h
	return h
}

// release frees slot h and returns the notification it held.
func (a *idArena) release(h int32) *msg.Notification {
	n := a.slots[h].N
	delete(a.index, n.ID)
	a.slots[h] = Slot{pos: a.free}
	a.free = h
	return n
}

// Queue is a priority queue of notifications ordered by msg.Notification
// rank order that also supports O(log n) removal by ID, as required by the
// set-subtraction operations in the paper's Figure 7 pseudo-code: a Heap
// over an arena of its own, plus the ID index.
type Queue struct {
	ids  idArena
	h    Heap
	best []int32 // BestN's scratch
}

// NewQueue returns an empty rank-ordered queue.
func NewQueue() *Queue {
	q := &Queue{ids: newIDArena()}
	q.h = NewHeap(&q.ids.slots)
	return q
}

// remove deletes the item at heap position i, frees its slot and applies
// the memory rule.
func (q *Queue) remove(i int) *msg.Notification {
	n := q.ids.release(q.h.removeAt(i))
	q.maybeShrink()
	return n
}

// maybeShrink releases the arena and the index map (which Go never shrinks
// on its own) under the heap's memory rule. The compacted arena numbers its
// slots in heap order and has none free.
func (q *Queue) maybeShrink() {
	c := cap(q.ids.slots)
	if c < shrinkFloor || q.Len() > c/4 {
		return
	}
	slots := make([]Slot, q.Len(), c/2)
	index := make(map[msg.ID]int32, q.Len())
	for i, h := range q.h.heap {
		n := q.ids.slots[h].N
		slots[i] = Slot{N: n, pos: int32(i)}
		index[n.ID] = int32(i)
		q.h.heap[i] = int32(i)
	}
	q.ids.slots, q.ids.free, q.ids.index = slots, -1, index
}

// notes appends the notifications with the given handles to dst.
func (q *Queue) notes(dst []*msg.Notification, hs []int32) []*msg.Notification {
	for _, h := range hs {
		dst = append(dst, q.ids.slots[h].N)
	}
	return dst
}

// Len returns the number of queued notifications.
func (q *Queue) Len() int { return q.h.Len() }

// Contains reports whether a notification with the given ID is queued.
func (q *Queue) Contains(id msg.ID) bool {
	_, ok := q.ids.index[id]
	return ok
}

// Get returns the queued notification with the given ID, if any.
func (q *Queue) Get(id msg.ID) (*msg.Notification, bool) {
	h, ok := q.ids.index[id]
	if !ok {
		return nil, false
	}
	return q.ids.slots[h].N, true
}

// Push inserts a notification. Inserting a duplicate ID is an error: the
// proxy must use UpdateRank to revise a queued notification.
func (q *Queue) Push(n *msg.Notification) error {
	if n == nil {
		return fmt.Errorf("push nil notification")
	}
	if q.Contains(n.ID) {
		return fmt.Errorf("duplicate notification %q", n.ID)
	}
	q.h.Push(q.ids.add(n))
	return nil
}

// PeekBest returns the highest-ranked notification without removing it.
func (q *Queue) PeekBest() (*msg.Notification, bool) {
	if q.Len() == 0 {
		return nil, false
	}
	return q.h.at(0), true
}

// PopBest removes and returns the highest-ranked notification.
func (q *Queue) PopBest() (*msg.Notification, bool) {
	if q.Len() == 0 {
		return nil, false
	}
	return q.remove(0), true
}

// Remove deletes the notification with the given ID, returning it if it was
// queued. This implements the pseudo-code's "queue \ event" subtraction.
func (q *Queue) Remove(id msg.ID) (*msg.Notification, bool) {
	h, ok := q.ids.index[id]
	if !ok {
		return nil, false
	}
	return q.remove(int(q.ids.slots[h].pos)), true
}

// UpdateRank revises the rank of a queued notification in place and
// restores heap order. It reports whether the notification was queued.
func (q *Queue) UpdateRank(id msg.ID, rank float64) bool {
	h, ok := q.ids.index[id]
	if !ok {
		return false
	}
	q.ids.slots[h].N.Rank = rank
	q.h.Fix(h)
	return true
}

// BestN returns the up-to-n highest-ranked notifications in rank order
// without removing them or moving anything in the heap. With n <= 0 it
// returns nil.
func (q *Queue) BestN(n int) []*msg.Notification {
	if n <= 0 || q.Len() == 0 {
		return nil
	}
	return q.AppendBestN(make([]*msg.Notification, 0, min(n, q.Len())), n)
}

// AppendBestN is BestN appending to dst: with a reused dst it allocates
// nothing. A read of the whole queue sorts a copy of it.
func (q *Queue) AppendBestN(dst []*msg.Notification, n int) []*msg.Notification {
	if n <= 0 || q.Len() == 0 {
		return dst
	}
	if n < q.Len() {
		q.best = q.h.topN(q.best[:0], n)
		return q.notes(dst, q.best)
	}
	start := len(dst)
	dst = q.notes(dst, q.h.heap)
	slices.SortFunc(dst[start:], (*msg.Notification).Compare)
	return dst
}

// TakeBestN removes and returns the up-to-n highest-ranked notifications in
// rank order. Taking the whole queue sorts it once instead of popping it;
// memory then follows the heap's rule: a queue whose arena grew past
// shrinkFloor keeps neither it nor its index map, a smaller one keeps both
// for the next arrivals.
func (q *Queue) TakeBestN(n int) []*msg.Notification {
	if n <= 0 {
		return nil
	}
	if n < q.Len() {
		out := make([]*msg.Notification, 0, n)
		for len(out) < n {
			out = append(out, q.remove(0))
		}
		return out
	}
	out := q.BestN(q.Len())
	if cap(q.ids.slots) < shrinkFloor {
		clear(q.ids.slots)
		q.ids.slots, q.ids.free, q.h.heap = q.ids.slots[:0], -1, q.h.heap[:0]
		clear(q.ids.index)
	} else {
		q.Clear()
	}
	return out
}

// PopWorst removes and returns the lowest-ranked notification. It is a
// linear scan: devices evict under storage pressure rarely, and the queue
// is optimized for best-first access.
func (q *Queue) PopWorst() (*msg.Notification, bool) {
	if q.Len() == 0 {
		return nil, false
	}
	worst := 0
	for i := 1; i < q.Len(); i++ {
		if q.h.at(worst).Before(q.h.at(i)) {
			worst = i
		}
	}
	return q.remove(worst), true
}

// IDs returns the IDs of all queued notifications in unspecified order.
func (q *Queue) IDs() []msg.ID { return q.h.IDs() }

// IDSet returns the queued IDs as a set.
func (q *Queue) IDSet() msg.IDSet {
	s := make(msg.IDSet, q.Len())
	for i := range q.Len() {
		s.Add(q.h.at(i).ID)
	}
	return s
}

// Each calls fn for every queued notification in unspecified order. The
// callback must not mutate the queue.
func (q *Queue) Each(fn func(*msg.Notification)) {
	for i := range q.Len() {
		fn(q.h.at(i))
	}
}

// Clear removes all queued notifications.
func (q *Queue) Clear() {
	q.ids = newIDArena()
	q.h.heap = nil
}

// ExpiryHeap is a min-heap of handles into an arena of Slots keyed by
// their notifications' expiration instants, then IDs, so the proxy can
// expire them with a single scheduled timeout per earliest deadline rather
// than one timer per event.
type ExpiryHeap struct {
	arena   *[]Slot
	entries []expiryEntry
}

// expiryEntry keeps the deadline beside the handle, so a sift compares
// without reaching into the notifications.
type expiryEntry struct {
	expires time.Time
	h       int32
}

// NewExpiryHeap returns an empty expiry heap over the arena *arena.
func NewExpiryHeap(arena *[]Slot) ExpiryHeap { return ExpiryHeap{arena: arena} }

// The heap is maintained by hand rather than through container/heap, whose
// Push and Pop box every entry into an interface: an entry is added and
// removed once per notification a device holds, and that was two
// allocations each. Its sifts are hole-based like Heap's, so each
// displaced entry's position is written once per level, not twice.

// Len returns the number of handles in the heap.
func (x *ExpiryHeap) Len() int { return len(x.entries) }

func (x *ExpiryHeap) before(e, o expiryEntry) bool {
	if c := e.expires.Compare(o.expires); c != 0 {
		return c < 0
	}
	return (*x.arena)[e.h].N.ID < (*x.arena)[o.h].N.ID
}

// place puts e at position i.
func (x *ExpiryHeap) place(i int, e expiryEntry) {
	x.entries[i] = e
	(*x.arena)[e.h].xpos = int32(i)
}

// up places e starting from the hole at i, sliding ancestors down.
func (x *ExpiryHeap) up(i int, e expiryEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := x.entries[parent]
		if !x.before(e, p) {
			break
		}
		x.place(i, p)
		i = parent
	}
	x.place(i, e)
}

// down places e starting from the hole at i, sliding the earlier child up.
func (x *ExpiryHeap) down(i int, e expiryEntry) {
	size := len(x.entries)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && x.before(x.entries[r], x.entries[child]) {
			child = r
		}
		c := x.entries[child]
		if !x.before(c, e) {
			break
		}
		x.place(i, c)
		i = child
	}
	x.place(i, e)
}

// Push adds handle h at its notification's expiration instant.
func (x *ExpiryHeap) Push(h int32) {
	x.entries = append(x.entries, expiryEntry{})
	x.up(len(x.entries)-1, expiryEntry{expires: (*x.arena)[h].N.Expires, h: h})
}

// removeAt deletes the entry at i, refilling the hole with the last entry.
func (x *ExpiryHeap) removeAt(i int) int32 {
	h := x.entries[i].h
	last := len(x.entries) - 1
	moved := x.entries[last]
	x.entries[last] = expiryEntry{}
	x.entries = x.entries[:last]
	if i < last {
		if i > 0 && x.before(moved, x.entries[(i-1)/2]) {
			x.up(i, moved)
		} else {
			x.down(i, moved)
		}
	}
	return h
}

// Remove deletes handle h from the heap.
func (x *ExpiryHeap) Remove(h int32) { x.removeAt(int((*x.arena)[h].xpos)) }

// Clear drops every entry and keeps the backing storage.
func (x *ExpiryHeap) Clear() {
	clear(x.entries)
	x.entries = x.entries[:0]
}

// NextExpiry returns the earliest expiration instant in the heap.
func (x *ExpiryHeap) NextExpiry() (time.Time, bool) {
	if len(x.entries) == 0 {
		return time.Time{}, false
	}
	return x.entries[0].expires, true
}

// PopDue removes and returns the earliest-expiring handle if its
// expiration instant is at or before now. Repeated calls drain every due
// entry in (expiry, ID) order without allocating.
func (x *ExpiryHeap) PopDue(now time.Time) (int32, bool) {
	if len(x.entries) == 0 || x.entries[0].expires.After(now) {
		return -1, false
	}
	return x.removeAt(0), true
}

// IDs returns the IDs in the heap in unspecified order, nil when empty.
func (x *ExpiryHeap) IDs() []msg.ID {
	if len(x.entries) == 0 {
		return nil
	}
	ids := make([]msg.ID, len(x.entries))
	for i, e := range x.entries {
		ids[i] = (*x.arena)[e.h].N.ID
	}
	return ids
}

// ExpiryIndex is an ExpiryHeap over an arena of its own, keyed by
// notification ID.
type ExpiryIndex struct {
	ids idArena
	h   ExpiryHeap
}

// NewExpiryIndex returns an empty expiration index.
func NewExpiryIndex() *ExpiryIndex {
	x := &ExpiryIndex{ids: newIDArena()}
	x.h = NewExpiryHeap(&x.ids.slots)
	return x
}

// Len returns the number of indexed notifications.
func (x *ExpiryIndex) Len() int { return x.h.Len() }

// Add indexes a notification's expiration. Notifications that never expire
// are ignored. Adding an already-indexed ID is an error.
func (x *ExpiryIndex) Add(n *msg.Notification) error {
	if n.NeverExpires() {
		return nil
	}
	if x.Contains(n.ID) {
		return fmt.Errorf("duplicate expiry entry %q", n.ID)
	}
	x.h.Push(x.ids.add(n))
	return nil
}

// Remove drops the entry for the given ID, reporting whether it existed.
func (x *ExpiryIndex) Remove(id msg.ID) bool {
	h, ok := x.ids.index[id]
	if !ok {
		return false
	}
	x.h.Remove(h)
	x.ids.release(h)
	return true
}

// Clear drops every entry. Like Remove, it keeps the backing storage.
func (x *ExpiryIndex) Clear() {
	x.h.Clear()
	clear(x.ids.slots)
	x.ids.slots, x.ids.free = x.ids.slots[:0], -1
	clear(x.ids.index)
}

// NextExpiry returns the earliest indexed expiration instant.
func (x *ExpiryIndex) NextExpiry() (time.Time, bool) { return x.h.NextExpiry() }

// PopDue removes and returns the earliest-expiring notification's ID if its
// expiration instant is at or before now. Repeated calls drain every due
// entry in (expiry, ID) order without allocating.
func (x *ExpiryIndex) PopDue(now time.Time) (msg.ID, bool) {
	h, ok := x.h.PopDue(now)
	if !ok {
		return msg.NoID, false
	}
	return x.ids.release(h).ID, true
}

// Contains reports whether the ID is indexed.
func (x *ExpiryIndex) Contains(id msg.ID) bool {
	_, ok := x.ids.index[id]
	return ok
}

// IDs returns the indexed IDs in unspecified order.
func (x *ExpiryIndex) IDs() []msg.ID { return x.h.IDs() }

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
