package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// clock is what the property test drives: Virtual, or the reference below.
type clock interface {
	Now() time.Time
	Schedule(d time.Duration, fn func()) Timer
	ScheduleAt(at time.Time, fn func()) Timer
	Pending() int
	Step() bool
	RunBefore(t time.Time)
}

// refClock is the reference scheduler: a flat list searched for the least
// (at, seq) on every step, comparing the instants themselves.
type refClock struct {
	now     time.Time
	seq     uint64
	pending []*refEvent
}

type refEvent struct {
	c   *refClock
	at  time.Time
	seq uint64
	fn  func()
}

func (c *refClock) Now() time.Time { return c.now }
func (c *refClock) Pending() int   { return len(c.pending) }

func (c *refClock) Schedule(d time.Duration, fn func()) Timer {
	return c.ScheduleAt(c.now.Add(max(d, 0)), fn)
}

func (c *refClock) ScheduleAt(at time.Time, fn func()) Timer {
	if at.Before(c.now) {
		at = c.now
	}
	e := &refEvent{c: c, at: at, seq: c.seq, fn: fn}
	c.seq++
	c.pending = append(c.pending, e)
	return e
}

func (e *refEvent) Cancel() bool {
	i := slices.Index(e.c.pending, e)
	if i < 0 {
		return false
	}
	e.c.pending = slices.Delete(e.c.pending, i, i+1)
	return true
}

// least is the index of the pending event with the least (at, seq).
func (c *refClock) least() int {
	best := 0
	for i, e := range c.pending {
		b := c.pending[best]
		if cmp := e.at.Compare(b.at); cmp < 0 || cmp == 0 && e.seq < b.seq {
			best = i
		}
	}
	return best
}

func (c *refClock) Step() bool {
	if len(c.pending) == 0 {
		return false
	}
	best := c.least()
	e := c.pending[best]
	c.pending = slices.Delete(c.pending, best, best+1)
	c.now = e.at
	e.fn()
	return true
}

func (c *refClock) RunBefore(t time.Time) {
	if t.Before(c.now) {
		return
	}
	for len(c.pending) > 0 && c.pending[c.least()].at.Before(t) {
		c.Step()
	}
	c.now = t
}

// runProgram drives one seeded random program of Schedule, ScheduleAt and
// Cancel calls, some issued from inside callbacks, interleaved with
// RunBefore calls, and logs every firing with its clock, every Cancel
// result, Pending() before every step and Now() after every RunBefore.
// RunBefore targets an instant some timer was scheduled for (often still
// pending, so a tie) or one half a millisecond past it (between). The
// program's choices depend only on the seed and on the order callbacks
// fire in, so two schedulers with the same order produce the same log.
func runProgram(c clock, seed int64) (log []string, timers []Timer) {
	rng := rand.New(rand.NewSource(seed))
	far := t0.AddDate(300, 0, 0) // past the int64-nanosecond range from t0
	instants := []time.Time{far, far.Add(time.Nanosecond), t0.AddDate(1000, 0, 0), t0.AddDate(-1, 0, 0)}
	var ats []time.Time // every instant a timer was scheduled for
	cancel := func(where string) {
		if len(timers) > 0 {
			k := rng.Intn(len(timers))
			log = append(log, fmt.Sprintf("%s cancel %d: %v", where, k, timers[k].Cancel()))
		}
	}
	var schedule func()
	schedule = func() {
		id := len(timers)
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d at %s", id, c.Now().Format(time.RFC3339Nano)))
			for k := rng.Intn(3); k > 0 && len(timers) < 1500; k-- {
				schedule()
			}
			if rng.Intn(3) == 0 {
				cancel("inside")
			}
		}
		var t Timer
		at := c.Now()
		switch rng.Intn(8) {
		case 0:
			t = c.Schedule(0, fn)
		case 1:
			t = c.Schedule(-time.Second, fn)
		case 2:
			at = instants[rng.Intn(len(instants))]
			t = c.ScheduleAt(at, fn)
		case 3, 4:
			d := time.Duration(rng.Intn(3)) * time.Second
			at = at.Add(d)
			t = c.Schedule(d, fn)
		default:
			d := time.Duration(rng.Intn(5000)) * time.Millisecond
			at = at.Add(d)
			t = c.Schedule(d, fn)
		}
		timers = append(timers, t)
		ats = append(ats, at)
	}
	for i := 0; i < 300; i++ {
		schedule()
	}
	for {
		if rng.Intn(6) == 0 {
			cancel("outside")
		}
		if rng.Intn(5) == 0 {
			at := ats[rng.Intn(len(ats))]
			if rng.Intn(2) == 0 {
				at = at.Add(500 * time.Microsecond)
			}
			c.RunBefore(at)
			log = append(log, fmt.Sprintf("run before %s: now %s", at.Format(time.RFC3339Nano), c.Now().Format(time.RFC3339Nano)))
		}
		log = append(log, fmt.Sprintf("pending %d", c.Pending()))
		if !c.Step() {
			return log, timers
		}
	}
}

// TestVirtualMatchesReference: Virtual's typed heap fires exactly the
// reference's (at, seq) order, including same-instant runs, cancels from
// inside callbacks, and instants too far from the origin for an int64
// nanosecond key; RunBefore stops short of the callbacks due at its
// instant and leaves the clock there, as the reference does; and every
// Timer refuses a Cancel once fired or cancelled.
func TestVirtualMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		got, timers := runProgram(NewVirtual(t0), seed)
		want, _ := runProgram(&refClock{now: t0}, seed)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: entry %d of %d: got %q, reference %q", seed, i, len(want), logAt(got, i), logAt(want, i))
		}
		for k, tm := range timers {
			if tm.Cancel() {
				t.Fatalf("seed %d: timer %d cancelled after the run drained", seed, k)
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if logAt(a, i) != logAt(b, i) {
			return i
		}
	}
	return -1
}

func logAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}
