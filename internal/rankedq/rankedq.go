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

type queueHeap struct {
	items []*msg.Notification
	index map[msg.ID]int
}

func (q *queueHeap) Len() int { return len(q.items) }

// The sifts below are hole-based rather than swap-based: the item being
// placed is held aside while ancestors or children slide into the hole, so
// each displaced item's index entry is written once. container/heap's
// Swap-driven sift would hash and write two index entries per level, and
// the index map writes dominate this structure's cost on the forward path.

// siftUp places n starting from the hole at i, sliding ancestors down.
func (q *queueHeap) siftUp(i int, n *msg.Notification) {
	for i > 0 {
		parent := (i - 1) / 2
		p := q.items[parent]
		if !n.Before(p) {
			break
		}
		q.items[i] = p
		q.index[p.ID] = i
		i = parent
	}
	q.items[i] = n
	q.index[n.ID] = i
}

// siftDown places n starting from the hole at i, sliding the best child up.
func (q *queueHeap) siftDown(i int, n *msg.Notification) {
	size := len(q.items)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && q.items[r].Before(q.items[child]) {
			child = r
		}
		c := q.items[child]
		if !c.Before(n) {
			break
		}
		q.items[i] = c
		q.index[c.ID] = i
		i = child
	}
	q.items[i] = n
	q.index[n.ID] = i
}

// fix places n into the hole at i, restoring heap order in whichever
// direction it violates it.
func (q *queueHeap) fix(i int, n *msg.Notification) {
	if i > 0 && n.Before(q.items[(i-1)/2]) {
		q.siftUp(i, n)
		return
	}
	q.siftDown(i, n)
}

func (q *queueHeap) push(n *msg.Notification) {
	q.items = append(q.items, nil)
	q.siftUp(len(q.items)-1, n)
}

func (q *queueHeap) pop() *msg.Notification {
	n := q.items[0]
	delete(q.index, n.ID)
	last := len(q.items) - 1
	moved := q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0, moved)
	}
	return n
}

// removeAt deletes the item at i, refilling the hole with the last item.
func (q *queueHeap) removeAt(i int) *msg.Notification {
	n := q.items[i]
	delete(q.index, n.ID)
	last := len(q.items) - 1
	moved := q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if i < last {
		q.fix(i, moved)
	}
	return n
}

// shrinkFloor is the smallest backing capacity worth releasing: queues
// that never grew past it keep their array forever.
const shrinkFloor = 64

// maybeShrink releases the backing array (and the index map, which Go
// never shrinks on its own) once the queue drains below a quarter of its
// capacity, so a burst does not pin its high-water memory for the rest of
// the session. The new capacity is half the old one — still at least twice
// the live length — so push/pop traffic around the boundary cannot thrash.
func (q *queueHeap) maybeShrink() {
	c := cap(q.items)
	if c < shrinkFloor || len(q.items) > c/4 {
		return
	}
	items := make([]*msg.Notification, len(q.items), c/2)
	copy(items, q.items)
	q.items = items
	index := make(map[msg.ID]int, len(items))
	for i, n := range items {
		index[n.ID] = i
	}
	q.index = index
}

// takeAll empties the heap and returns its items in rank order: one sort
// instead of a pop per item, each of which rewrites an index entry per level
// of its sift. Memory follows maybeShrink's rule: a queue whose array grew
// past shrinkFloor hands that array out and keeps neither it nor its index
// map; a smaller one keeps both for the next arrivals.
func (q *queueHeap) takeAll() []*msg.Notification {
	out := q.items
	if cap(out) < shrinkFloor {
		out = make([]*msg.Notification, len(q.items))
		copy(out, q.items)
		clear(q.items)
		q.items = q.items[:0]
		clear(q.index)
	} else {
		q.items = nil
		q.index = make(map[msg.ID]int)
	}
	slices.SortFunc(out, (*msg.Notification).Compare)
	return out
}

// NewQueue returns an empty rank-ordered queue.
func NewQueue() *Queue {
	return &Queue{h: queueHeap{index: make(map[msg.ID]int)}}
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
	i, ok := q.h.index[id]
	if !ok {
		return nil, false
	}
	return q.h.items[i], true
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
	return q.h.items[0], true
}

// PopBest removes and returns the highest-ranked notification.
func (q *Queue) PopBest() (*msg.Notification, bool) {
	if q.h.Len() == 0 {
		return nil, false
	}
	n := q.h.pop()
	q.h.maybeShrink()
	return n, true
}

// Remove deletes the notification with the given ID, returning it if it was
// queued. This implements the pseudo-code's "queue \ event" subtraction.
func (q *Queue) Remove(id msg.ID) (*msg.Notification, bool) {
	i, ok := q.h.index[id]
	if !ok {
		return nil, false
	}
	n := q.h.removeAt(i)
	q.h.maybeShrink()
	return n, true
}

// UpdateRank revises the rank of a queued notification in place and
// restores heap order. It reports whether the notification was queued.
func (q *Queue) UpdateRank(id msg.ID, rank float64) bool {
	i, ok := q.h.index[id]
	if !ok {
		return false
	}
	n := q.h.items[i]
	n.Rank = rank
	q.h.fix(i, n)
	return true
}

// BestN returns the up-to-n highest-ranked notifications in rank order
// without removing them. With n <= 0 it returns nil. A partial read runs in
// O(n log len) by popping and restoring, which matters because the proxy
// calls it on every user read against queues that can hold a year of
// backlog; a read of the whole queue sorts a copy and leaves the heap alone.
func (q *Queue) BestN(n int) []*msg.Notification {
	if n <= 0 || q.h.Len() == 0 {
		return nil
	}
	if n >= q.h.Len() {
		out := slices.Clone(q.h.items)
		slices.SortFunc(out, (*msg.Notification).Compare)
		return out
	}
	out := q.TakeBestN(n)
	for _, item := range out {
		q.h.push(item)
	}
	return out
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
	for i := 0; i < n; i++ {
		best, ok := q.PopBest()
		if !ok {
			break
		}
		out = append(out, best)
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
	worst := q.h.items[0]
	for _, n := range q.h.items[1:] {
		if worst.Before(n) {
			worst = n
		}
	}
	return q.Remove(worst.ID)
}

// IDs returns the IDs of all queued notifications in unspecified order.
func (q *Queue) IDs() []msg.ID {
	ids := make([]msg.ID, 0, len(q.h.items))
	for _, n := range q.h.items {
		ids = append(ids, n.ID)
	}
	return ids
}

// IDSet returns the queued IDs as a set.
func (q *Queue) IDSet() msg.IDSet {
	s := make(msg.IDSet, len(q.h.items))
	for _, n := range q.h.items {
		s.Add(n.ID)
	}
	return s
}

// Each calls fn for every queued notification in unspecified order. The
// callback must not mutate the queue.
func (q *Queue) Each(fn func(*msg.Notification)) {
	for _, n := range q.h.items {
		fn(n)
	}
}

// Clear removes all queued notifications.
func (q *Queue) Clear() {
	q.h.items = nil
	q.h.index = make(map[msg.ID]int)
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
// allocations each.

func (h *expiryHeap) Len() int { return len(h.entries) }

func (h *expiryHeap) less(i, j int) bool {
	if !h.entries[i].expires.Equal(h.entries[j].expires) {
		return h.entries[i].expires.Before(h.entries[j].expires)
	}
	return h.entries[i].id < h.entries[j].id
}

func (h *expiryHeap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.index[h.entries[i].id] = i
	h.index[h.entries[j].id] = j
}

func (h *expiryHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *expiryHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h.entries) {
			break
		}
		if r := child + 1; r < len(h.entries) && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
}

func (h *expiryHeap) push(e expiryEntry) {
	h.index[e.id] = len(h.entries)
	h.entries = append(h.entries, e)
	h.up(len(h.entries) - 1)
}

// removeAt deletes the entry at i, refilling the hole with the last entry.
func (h *expiryHeap) removeAt(i int) expiryEntry {
	last := len(h.entries) - 1
	h.swap(i, last)
	e := h.entries[last]
	h.entries = h.entries[:last]
	delete(h.index, e.id)
	if i < last {
		h.down(i)
		h.up(i)
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

// PopExpired removes and returns the IDs of all notifications whose
// expiration instant is strictly before or at now, in expiry order.
func (x *ExpiryIndex) PopExpired(now time.Time) []msg.ID {
	var out []msg.ID
	for x.h.Len() > 0 && !x.h.entries[0].expires.After(now) {
		out = append(out, x.h.removeAt(0).id)
	}
	return out
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
