// Package simtime abstracts time for the last-hop proxy so that the same
// algorithm code runs under a discrete-event virtual clock in simulation
// and under the wall clock in a live deployment.
//
// The proxy algorithm (paper Figure 7) relies on a schedule() primitive to
// expire and delay notifications; Scheduler provides it. There are two
// implementations. Virtual is the one deterministic scheduler: the
// single-goroutine simulator clock, on which journal recovery replays too.
// Wheel is a hierarchical timing wheel that NewWallWheel walks against the
// wall clock for every live proxy, serializing timer callbacks and
// external events through one mutex so the algorithm keeps its
// single-threaded discipline, and firing each callback no earlier than its
// instant and at most two ticks late.
package simtime

import (
	"math"
	"time"
)

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Cancel prevents the callback from running, reporting whether it was
	// still pending. Called serialized with the scheduler's callbacks
	// (from a callback or a Run closure), a Cancel that returns true means
	// the callback never runs, even when it is due in the batch that is
	// firing.
	Cancel() bool
}

// Scheduler is the time facility the proxy depends on.
type Scheduler interface {
	// Now returns the current instant.
	Now() time.Time
	// Schedule runs fn after d, serialized with every other callback.
	// Non-positive delays run at the current instant (Virtual) or on
	// the next tick (the live wheel).
	Schedule(d time.Duration, fn func()) Timer
	// Run executes fn serialized with scheduled callbacks. External
	// inputs (network frames, user commands) enter the proxy through Run.
	Run(fn func())
}

// Virtual is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the simulation driver owns it.
type Virtual struct {
	now time.Time
	// origin is the start instant without a monotonic clock reading:
	// event keys count wall-clock nanoseconds from it.
	origin time.Time
	events []*event // min-heap in (at, seq) order
	seq    uint64
}

var _ Scheduler = (*Virtual)(nil)

// event is one scheduled callback; it is also the callback's Timer.
type event struct {
	v  *Virtual
	at time.Time
	// key is at in nanoseconds since v.origin, so that ordering compares
	// integers rather than time.Time values. An instant more than ~292
	// years from the origin saturates the int64 range, and ties between
	// saturated keys fall back to comparing at itself.
	key   int64
	seq   uint64
	fn    func()
	index int // position in v.events; -1 once fired or cancelled
}

// before is the firing order: by instant, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	if e.key == math.MaxInt64 || e.key == math.MinInt64 {
		if c := e.at.Compare(o.at); c != 0 {
			return c < 0
		}
	}
	return e.seq < o.seq
}

// Cancel prevents the callback from running, reporting whether it was
// still pending.
func (e *event) Cancel() bool {
	if e.index < 0 {
		return false
	}
	e.v.removeAt(e.index)
	e.fn = nil
	return true
}

// The event heap is maintained by hand rather than through container/heap:
// no interface boxing, and its sifts are hole-based like rankedq's, so a
// displaced event is stored and re-indexed once per level.

// up places e starting from the hole at i, sliding ancestors down.
func (v *Virtual) up(i int, e *event) {
	for i > 0 {
		parent := (i - 1) / 2
		p := v.events[parent]
		if !e.before(p) {
			break
		}
		v.events[i] = p
		p.index = i
		i = parent
	}
	v.events[i] = e
	e.index = i
}

// down places e starting from the hole at i, sliding the earlier child up.
func (v *Virtual) down(i int, e *event) {
	size := len(v.events)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		c := v.events[child]
		if r := child + 1; r < size && v.events[r].before(c) {
			child, c = r, v.events[r]
		}
		if !c.before(e) {
			break
		}
		v.events[i] = c
		c.index = i
		i = child
	}
	v.events[i] = e
	e.index = i
}

// removeAt takes the event at i off the heap, refilling the hole with the
// last event.
func (v *Virtual) removeAt(i int) *event {
	e := v.events[i]
	e.index = -1
	last := len(v.events) - 1
	moved := v.events[last]
	v.events[last] = nil
	v.events = v.events[:last]
	if i < last {
		if i > 0 && moved.before(v.events[(i-1)/2]) {
			v.up(i, moved)
		} else {
			v.down(i, moved)
		}
	}
	return e
}

// NewVirtual returns a virtual scheduler starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start, origin: start.Round(0)}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time { return v.now }

// Schedule enqueues fn to run at Now()+d (clamped to Now() for negative d).
func (v *Virtual) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return v.ScheduleAt(v.now.Add(d), fn)
}

// ScheduleAt enqueues fn to run at the given instant (clamped to Now()).
func (v *Virtual) ScheduleAt(at time.Time, fn func()) Timer {
	if at.Before(v.now) {
		at = v.now
	}
	e := &event{v: v, at: at, key: int64(at.Sub(v.origin)), seq: v.seq, fn: fn}
	v.seq++
	v.events = append(v.events, nil)
	v.up(len(v.events)-1, e)
	return e
}

// Run executes fn immediately; the virtual scheduler is single-threaded.
func (v *Virtual) Run(fn func()) { fn() }

// Pending returns the number of scheduled, uncancelled callbacks.
func (v *Virtual) Pending() int { return len(v.events) }

// Step runs the earliest pending callback, advancing the clock to its
// deadline. It reports whether a callback ran.
func (v *Virtual) Step() bool {
	if len(v.events) == 0 {
		return false
	}
	e := v.removeAt(0)
	fn := e.fn
	e.fn = nil
	v.now = e.at
	fn()
	return true
}

// RunUntil runs every callback scheduled up to and including the given
// instant, then advances the clock to it.
func (v *Virtual) RunUntil(t time.Time) {
	if t.Before(v.now) {
		return
	}
	for len(v.events) > 0 && !v.events[0].at.After(t) {
		v.Step()
	}
	v.now = t
}

// RunBefore runs every callback scheduled strictly before the given
// instant, then advances the clock to it without running the callbacks
// due at it: a driver can feed its own inputs at t ahead of them.
func (v *Virtual) RunBefore(t time.Time) {
	if t.Before(v.now) {
		return
	}
	for len(v.events) > 0 && v.events[0].at.Before(t) {
		v.Step()
	}
	v.now = t
}

// Advance is RunUntil(Now()+d).
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.RunUntil(v.now.Add(d))
}

// RunUntilIdle runs callbacks until none are pending. Callbacks that keep
// rescheduling themselves will make this spin; the simulation drivers in
// this repository only use it on draining workloads.
func (v *Virtual) RunUntilIdle() {
	for v.Step() {
	}
}

// NextDeadline returns the earliest pending callback's instant.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	if len(v.events) == 0 {
		return time.Time{}, false
	}
	return v.events[0].at, true
}
