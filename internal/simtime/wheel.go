// Hierarchical timing wheel (Varghese & Lauck) backing every live proxy.
// One runtime timer per scheduled callback (time.AfterFunc) is what the
// multi-tenant host escapes: a node with a million queued notifications
// would hold a million entries in the runtime timer heap. The wheel stores
// timers in coarse-tick buckets instead — O(1) arm and cancel with zero
// steady-state allocation, one ticker goroutine per wheel — at the cost of
// firing up to two ticks late.
package simtime

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 8 // 64^8 ticks of horizon; beyond that clamps to the top level
)

// Wheel is a hierarchical timing wheel implementing Scheduler. A ticker
// goroutine walks it against the wall clock. Callbacks run serialized with
// Run, and arming a timer only links a recycled list node into a bucket —
// no runtime timer, no allocation in steady state.
//
// Fire times are quantized to ticks. Schedule charges one extra tick of
// slack (it reads the coarse tick counter, not the wall clock), so a
// callback runs no earlier than its requested instant and at most two
// ticks late, plus whatever the ticker goroutine is delayed by. Callbacks
// due on one tick run in arm order.
//
// Timer handles and recycling: timer nodes return to a free list when
// they fire or are cancelled, so arming under churn does not allocate.
// The price is a contract on stale handles — Cancel must only be called
// on a handle that is serialized with the wheel's callbacks (from inside
// a callback or a Run closure). Within that discipline Cancel is always
// safe, including on a timer already collected into the currently firing
// batch (it wins, as under Virtual). Cancelling a handle whose callback
// has already run returns false until the node is re-armed for a new
// timer; callers that drop handles once their callback runs (as the
// proxy's timers do) never observe a re-armed node.
type Wheel struct {
	// cbMu serializes callbacks and Run closures.
	// Lock order: cbMu before mu; Schedule/Cancel take only mu so timer
	// management from inside callbacks cannot deadlock.
	cbMu sync.Mutex
	// mu guards the bucket structure, the free list, and timer state. It
	// is a spinlock: critical sections are a handful of pointer writes,
	// and the host arms/cancels timers on its hot path (delay stages,
	// quiet windows, each topic's expiry), where sync.Mutex overhead is
	// measurable.
	mu wheelLock

	start   time.Time
	tickNs  int64
	cur     int64 // last processed tick; now >= start + cur*tick
	seq     uint64
	pending int
	closed  bool
	free    *wheelTimer // recycled nodes, linked through next
	buckets [wheelLevels][wheelSlots]wheelList
	done    chan struct{} // closed by Close; stops tickLoop

	// tickHook, when set, runs at the end of every advance (under
	// cbMu, after mu is released) with the ticks processed, timers
	// cascaded, and wall time spent. The host uses it as the worker
	// heartbeat: an idle wheel still advances, so a fresh stamp means
	// the loop is alive, while a wedged callback holds cbMu and lets the
	// stamp age — exactly the stall the watchdog looks for.
	tickHook atomic.Pointer[func(ticks, cascaded, busyNs int64)]
}

var _ Scheduler = (*Wheel)(nil)

// wheelLock is a test-and-set spinlock. Hold times are tens of
// nanoseconds (pointer splices under mu), so spinning beats parking; the
// Gosched fallback keeps a pre-empted holder from starving spinners.
type wheelLock struct {
	v atomic.Int32
}

func (l *wheelLock) lock() {
	if l.v.CompareAndSwap(0, 1) {
		return
	}
	for spins := 0; ; spins++ {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		if spins >= 64 {
			runtime.Gosched()
			spins = 0
		}
	}
}

func (l *wheelLock) unlock() {
	l.v.Store(0)
}

type wheelList struct {
	head, tail *wheelTimer
}

func (l *wheelList) push(t *wheelTimer) {
	t.prev = l.tail
	t.next = nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
	t.list = l
}

func (l *wheelList) remove(t *wheelTimer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.next, t.list = nil, nil, nil
}

const (
	wtFree      = iota // on the free list (or the dead sentinel)
	wtPending          // linked into a bucket
	wtStaged           // collected for firing, callback not yet run
	wtCancelled        // Cancel won after staging; runner will recycle
)

type wheelTimer struct {
	w          *Wheel
	fn         func()
	prev, next *wheelTimer
	list       *wheelList
	tickN      int64 // boundary tick the callback fires on
	seq        uint64
	state      uint8
}

// Cancel stops the timer, reporting whether the callback had not yet run.
// Like Virtual, cancelling a timer that is due in the current batch but
// whose callback has not started yet still wins. See the Wheel doc for
// the serialization contract on stale handles.
func (t *wheelTimer) Cancel() bool {
	w := t.w
	if w == nil {
		return false // dead handle from a closed wheel
	}
	w.mu.lock()
	switch t.state {
	case wtPending:
		t.list.remove(t)
		w.pending--
		w.recycle(t)
		w.mu.unlock()
		return true
	case wtStaged:
		// The batch runner skips and recycles cancelled entries; freeing
		// here would hand the node to a new owner while the runner still
		// holds it.
		t.state = wtCancelled
		w.mu.unlock()
		return true
	default:
		w.mu.unlock()
		return false
	}
}

// node returns a free timer node, allocating only when the free list is
// empty. Callers hold mu.
func (w *Wheel) node() *wheelTimer {
	t := w.free
	if t == nil {
		return &wheelTimer{w: w}
	}
	w.free = t.next
	t.next = nil
	return t
}

// recycle returns the node to the free list. Callers hold mu.
func (w *Wheel) recycle(t *wheelTimer) {
	t.fn = nil
	t.prev, t.list = nil, nil
	t.state = wtFree
	t.next = w.free
	w.free = t
}

// NewWallWheel returns a wheel walked against the wall clock by its own
// ticker goroutine. Close releases the goroutine.
func NewWallWheel(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	w := newWheel(tick)
	go w.tickLoop()
	return w
}

func newWheel(tick time.Duration) *Wheel {
	return &Wheel{start: time.Now(), tickNs: int64(tick), done: make(chan struct{})}
}

// Now returns the wall clock.
func (w *Wheel) Now() time.Time { return time.Now() }

// deadTimer is returned by Schedule on a closed wheel; its nil wheel makes
// Cancel a no-op.
var deadTimer = &wheelTimer{}

// Schedule arms fn to run after d. Arming is O(1) — a list insert under a
// spinlock — regardless of how many timers are outstanding, and recycles
// timer nodes so steady-state arming does not touch the allocator.
func (w *Wheel) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	w.mu.lock()
	if w.closed {
		w.mu.unlock()
		return deadTimer
	}
	t := w.node()
	t.fn = fn
	t.seq = w.seq
	t.state = wtPending
	w.seq++
	// Tick arithmetic instead of the wall clock: the walk has processed
	// tick cur, so "now" is inside (cur, cur+1]; charging from cur+1 means
	// the callback can never run early, at the cost of up to one extra
	// tick of slack.
	t.tickN = w.cur + 1 + ceilDiv(int64(d), w.tickNs)
	w.place(t)
	w.pending++
	w.mu.unlock()
	return t
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// place links a pending timer into the level whose span covers its delta
// from the current tick, which is never negative: Schedule arms past cur,
// and cascade re-places only entries due at or after it. Callers hold mu.
func (w *Wheel) place(t *wheelTimer) {
	delta := t.tickN - w.cur
	level := 0
	for level < wheelLevels-1 && delta >= int64(1)<<(wheelBits*(level+1)) {
		level++
	}
	slot := int((t.tickN >> (wheelBits * uint(level))) & wheelMask)
	w.buckets[level][slot].push(t)
}

// Run executes fn serialized with callbacks. After Close it is a no-op.
func (w *Wheel) Run(fn func()) {
	w.cbMu.Lock()
	defer w.cbMu.Unlock()
	w.mu.lock()
	closed := w.closed
	w.mu.unlock()
	if !closed {
		fn()
	}
}

// Pending returns the number of armed, uncancelled timers.
func (w *Wheel) Pending() int {
	w.mu.lock()
	n := w.pending
	w.mu.unlock()
	return n
}

// Close stops the wheel: pending callbacks are dropped, the ticker
// goroutine exits, and Close blocks until any currently running callback
// finishes.
func (w *Wheel) Close() {
	w.cbMu.Lock()
	defer w.cbMu.Unlock()
	w.mu.lock()
	if w.closed {
		w.mu.unlock()
		return
	}
	w.closed = true
	w.mu.unlock()
	close(w.done)
}

// tickLoop walks the wheel to the tick the wall clock has reached on each
// ticker wake. The target is read under cbMu, so a wake that waited for a
// long callback or Run closure still fires what fell due meanwhile.
func (w *Wheel) tickLoop() {
	ticker := time.NewTicker(time.Duration(w.tickNs))
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-ticker.C:
			w.cbMu.Lock()
			w.advance(int64(time.Since(w.start)) / w.tickNs)
			w.cbMu.Unlock()
		}
	}
}

// advance walks the wheel tick by tick up to target, cascading higher
// levels down and firing each due bucket. Callers hold cbMu.
func (w *Wheel) advance(target int64) {
	hook := w.tickHook.Load()
	var begin time.Time
	if hook != nil {
		begin = time.Now()
	}
	var ticks, cascaded int64
	w.mu.lock()
	var batch []*wheelTimer
	for !w.closed && w.cur < target {
		k := w.cur + 1
		// cur must advance to k before the cascade: place() computes level
		// deltas relative to cur, and with cur still at k-1 an entry due on
		// the last tick of a slot span (tickN = k+64^L-1, delta exactly
		// 64^L) would be re-placed into the level it was just drained from
		// and miss its deadline by a full higher-level wrap.
		w.cur = k
		cascaded += w.cascade(k)
		ticks++
		batch = w.takeSlot(&w.buckets[0][k&wheelMask], batch[:0])
		if len(batch) > 0 {
			sortWheelBatch(batch)
			w.mu.unlock()
			w.runBatch(batch)
			w.mu.lock()
		}
	}
	w.mu.unlock()
	if hook != nil {
		(*hook)(ticks, cascaded, int64(time.Since(begin)))
	}
}

// SetTickHook installs (or, with nil, clears) the advance hook. The
// hook runs under the callback mutex, so it must be fast and must not
// schedule or cancel wheel timers.
func (w *Wheel) SetTickHook(fn func(ticks, cascaded, busyNs int64)) {
	if fn == nil {
		w.tickHook.Store(nil)
		return
	}
	w.tickHook.Store(&fn)
}

// cascade moves entries whose horizon has arrived down one or more levels,
// returning how many it moved. At tick k, level L's slot holds exactly the
// entries with tickN in [k, k+64^L) when k is a multiple of 64^L;
// re-placing them lands them in a lower level (or level 0's due slot).
// Callers hold mu and must have advanced w.cur to k already so place()
// sees deltas < 64^L.
func (w *Wheel) cascade(k int64) int64 {
	var moved int64
	for level := wheelLevels - 1; level >= 1; level-- {
		span := int64(1) << (wheelBits * uint(level))
		if k%span != 0 {
			continue
		}
		slot := int((k >> (wheelBits * uint(level))) & wheelMask)
		l := &w.buckets[level][slot]
		for t := l.head; t != nil; {
			next := t.next
			l.remove(t)
			w.place(t)
			moved++
			t = next
		}
	}
	return moved
}

// takeSlot unlinks and stages every entry in the bucket. Callers hold mu.
func (w *Wheel) takeSlot(l *wheelList, batch []*wheelTimer) []*wheelTimer {
	for t := l.head; t != nil; {
		next := t.next
		l.remove(t)
		t.state = wtStaged
		w.pending--
		batch = append(batch, t)
		t = next
	}
	return batch
}

// sortWheelBatch puts a due batch in arm order, the order Virtual fires
// callbacks due on one instant. A bucket's list order is not arm order
// once a cascade appends an earlier-armed entry behind a later one placed
// directly.
func sortWheelBatch(batch []*wheelTimer) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
}

// runBatch executes staged callbacks, honoring cancellations that landed
// after staging (a callback earlier in the batch may cancel a later one,
// exactly as it could under Virtual). Callers hold cbMu but not mu.
func (w *Wheel) runBatch(batch []*wheelTimer) {
	for i, t := range batch {
		batch[i] = nil
		w.mu.lock()
		if t.state != wtStaged || w.closed {
			// Cancelled after staging (or wheel closed): the runner owns
			// the node, so this is where it returns to the free list.
			w.recycle(t)
			w.mu.unlock()
			continue
		}
		fn := t.fn
		w.recycle(t)
		w.mu.unlock()
		fn()
	}
}
