// Package rankedq provides the queue structures used by the last-hop proxy
// algorithm: a rank-ordered heap and an expiration heap that surfaces
// stale notifications in expiry order.
//
// Heap and ExpiryHeap own no ID index: their entries are handles into an
// Arena of Slots that the caller owns and may share between several of
// them, as the proxy's and the device's per-topic tables do. Queue is a
// Heap keyed by notification ID, with an arena and an index of its own.
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

// Clear empties the heap. A heap that grew past shrinkFloor gives its
// storage back, a smaller one keeps it.
func (q *Heap) Clear() {
	if cap(q.heap) >= shrinkFloor {
		q.heap = nil
		return
	}
	q.heap = q.heap[:0]
}

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

// Arena is the slots that a set of heaps share. Freed slots form a list
// linked through pos and ended by -1, so a structure at steady size
// allocates nothing per add; the zero value is not ready, NewArena is.
type Arena struct {
	Slots []Slot
	free  int32
}

// NewArena returns an empty arena.
func NewArena() Arena { return Arena{free: -1} }

// Add puts n in a free slot, or a new one, and returns its handle.
func (a *Arena) Add(n *msg.Notification) int32 {
	h := a.free
	if h >= 0 {
		a.free = a.Slots[h].pos
		a.Slots[h] = Slot{N: n}
		return h
	}
	if a.Slots == nil {
		a.Slots = make([]Slot, 0, 4)
	}
	a.Slots = append(a.Slots, Slot{N: n})
	return int32(len(a.Slots) - 1)
}

// Release frees slot h, which no heap holds, and returns its notification.
func (a *Arena) Release(h int32) *msg.Notification {
	n := a.Slots[h].N
	a.Slots[h] = Slot{pos: a.free}
	a.free = h
	return n
}

// Reset frees every slot at once; no heap may hold any. An arena that grew
// past shrinkFloor gives its storage back, a smaller one keeps it for the
// next arrivals.
func (a *Arena) Reset() {
	if cap(a.Slots) >= shrinkFloor {
		*a = NewArena()
		return
	}
	clear(a.Slots)
	a.Slots, a.free = a.Slots[:0], -1
}

// Queue is a priority queue of notifications ordered by msg.Notification
// rank order that also supports O(log n) removal by ID, as required by the
// set-subtraction operations in the paper's Figure 7 pseudo-code: a Heap
// over an Arena of its own, plus the index from ID to handle.
type Queue struct {
	ids   Arena
	index map[msg.ID]int32
	h     Heap
	best  []int32 // BestN's scratch
}

// NewQueue returns an empty rank-ordered queue.
func NewQueue() *Queue {
	q := &Queue{ids: NewArena(), index: make(map[msg.ID]int32)}
	q.h = NewHeap(&q.ids.Slots)
	return q
}

// remove deletes the item at heap position i, frees its slot and applies
// the memory rule.
func (q *Queue) remove(i int) *msg.Notification {
	n := q.ids.Release(q.h.removeAt(i))
	delete(q.index, n.ID)
	q.maybeShrink()
	return n
}

// maybeShrink releases the arena and the index map (which Go never shrinks
// on its own) under the heap's memory rule. The compacted arena numbers its
// slots in heap order and has none free.
func (q *Queue) maybeShrink() {
	c := cap(q.ids.Slots)
	if c < shrinkFloor || q.Len() > c/4 {
		return
	}
	slots := make([]Slot, q.Len(), c/2)
	index := make(map[msg.ID]int32, q.Len())
	for i, h := range q.h.heap {
		n := q.ids.Slots[h].N
		slots[i] = Slot{N: n, pos: int32(i)}
		index[n.ID] = int32(i)
		q.h.heap[i] = int32(i)
	}
	q.ids.Slots, q.ids.free, q.index = slots, -1, index
}

// Len returns the number of queued notifications.
func (q *Queue) Len() int { return q.h.Len() }

// Push inserts a notification. Inserting a duplicate ID is an error: the
// proxy must use UpdateRank to revise a queued notification.
func (q *Queue) Push(n *msg.Notification) error {
	if n == nil {
		return fmt.Errorf("push nil notification")
	}
	if _, dup := q.index[n.ID]; dup {
		return fmt.Errorf("duplicate notification %q", n.ID)
	}
	h := q.ids.Add(n)
	q.index[n.ID] = h
	q.h.Push(h)
	return nil
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
	h, ok := q.index[id]
	if !ok {
		return nil, false
	}
	return q.remove(int(q.ids.Slots[h].pos)), true
}

// UpdateRank revises the rank of a queued notification in place and
// restores heap order. It reports whether the notification was queued.
func (q *Queue) UpdateRank(id msg.ID, rank float64) bool {
	h, ok := q.index[id]
	if !ok {
		return false
	}
	q.ids.Slots[h].N.Rank = rank
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
	q.best = q.h.AppendBest(q.best[:0], n)
	out := make([]*msg.Notification, len(q.best))
	for i, h := range q.best {
		out[i] = q.ids.Slots[h].N
	}
	return out
}

// TakeBestN removes and returns the up-to-n highest-ranked notifications in
// rank order. Taking the whole queue sorts it once instead of popping it;
// memory then follows Arena.Reset's rule, the index map with the arena.
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
	if cap(q.ids.Slots) >= shrinkFloor {
		q.index = make(map[msg.ID]int32)
	} else {
		clear(q.index)
	}
	q.ids.Reset()
	q.h.Clear()
	return out
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
