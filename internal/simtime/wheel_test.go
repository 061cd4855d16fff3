package simtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

var w0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// walkTo runs the wheel's tick walk up to tick target on the calling
// goroutine, as tickLoop does once the wall clock has reached it. Tests
// build the wheel with newWheel, which starts no ticker goroutine, so the
// walk only moves when the test says so, and read the walk's tick, w.cur,
// from callbacks and between walks.
func walkTo(w *Wheel, target int64) {
	w.cbMu.Lock()
	defer w.cbMu.Unlock()
	w.advance(target)
}

// TestWheelFireOrderMatchesVirtual is the wheel's property test: a random
// program of arms, cancels and walks fires the wheel's callbacks in
// exactly the order Virtual fires the same program with every timer placed
// where the walk quantizes it, at tick armTick+1+ceil(d/tick). Delays
// span several hundred ticks and arms interleave with walks, so a due
// bucket mixes entries that a level-1 cascade brought down with entries
// placed there directly; only the batch sort puts those in arm order.
// Callbacks arm children and cancel other timers, so the program also
// covers arming and same-batch cancellation from inside a batch.
func TestWheelFireOrderMatchesVirtual(t *testing.T) {
	const tick = 10 * time.Millisecond
	const rounds = 50
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		type op struct {
			kind  int // 0 arm, 1 cancel, 2 walk
			d     time.Duration
			child time.Duration // > 0: the callback arms a child with this delay
			kill  int           // >= 0: the callback cancels this timer
			ticks int64
		}
		var prog []op
		n := 0
		for len(prog) < 300 {
			switch r := rng.Float64(); {
			case r < 0.6:
				o := op{kind: 0, kill: -1}
				// Sub-tick jitter: several deadlines collapse into one
				// bucket. Up to 600 ticks: levels 0 and 1.
				o.d = time.Duration(rng.Int63n(int64(600 * tick)))
				if rng.Float64() < 0.2 {
					o.child = time.Duration(1 + rng.Int63n(int64(100*tick)))
				}
				if n > 0 && rng.Float64() < 0.1 {
					o.kill = rng.Intn(n)
				}
				prog = append(prog, o)
				n++
			case r < 0.7 && n > 0:
				prog = append(prog, op{kind: 1, kill: rng.Intn(n)})
			default:
				prog = append(prog, op{kind: 2, ticks: 1 + rng.Int63n(80)})
			}
		}

		// run interprets the program on one scheduler and returns the fire
		// order: timer index, or -1-parent for a child.
		run := func(arm func(time.Duration, func()) Timer, walk func(ticks int64)) []int {
			var order []int
			var timers []Timer
			var dead []bool
			// A handle is dropped once its timer fires or is cancelled: a
			// wheel node is recycled then, as the Wheel doc describes.
			cancel := func(k int) {
				if !dead[k] {
					dead[k] = true
					timers[k].Cancel()
				}
			}
			for _, o := range prog {
				switch o.kind {
				case 0:
					i, o := len(timers), o
					dead = append(dead, false)
					timers = append(timers, arm(o.d, func() {
						dead[i] = true
						order = append(order, i)
						if o.kill >= 0 {
							cancel(o.kill)
						}
						if o.child > 0 {
							arm(o.child, func() { order = append(order, -1-i) })
						}
					}))
				case 1:
					cancel(o.kill)
				case 2:
					walk(o.ticks)
				}
			}
			walk(2000)
			return order
		}

		w := newWheel(tick)
		got := run(w.Schedule, func(n int64) { walkTo(w, w.cur+n) })
		w.Close()
		v := NewVirtual(w0)
		want := run(func(d time.Duration, fn func()) Timer {
			armTick := int64(v.Now().Sub(w0)) / int64(tick)
			return v.ScheduleAt(w0.Add(time.Duration(armTick+1+ceilDiv(int64(d), int64(tick)))*tick), fn)
		}, func(n int64) { v.Advance(time.Duration(n) * tick) })

		if len(got) != len(want) {
			t.Fatalf("round %d: wheel fired %d callbacks, virtual fired %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: fire order diverged at %d: wheel %v, virtual %v", round, i, got, want)
			}
		}
	}
}

// TestWheelAccuracyBoundedByOneTick pins the wheel's timing contract on
// the tick grid: a timer armed after the walk processed tick armTick with
// delay d never fires before (armTick+1)·tick + d, and at most one tick
// after it.
func TestWheelAccuracyBoundedByOneTick(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := newWheel(tick)
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	type obs struct {
		want  time.Duration // earliest allowed fire instant, since start
		fired time.Duration
	}
	var seen []obs
	for i := 0; i < 500; i++ {
		if i%50 == 0 {
			walkTo(w, w.cur+1+rng.Int63n(30))
		}
		d := time.Duration(rng.Int63n(int64(3 * time.Second)))
		if i%7 == 0 {
			d = time.Duration(rng.Int63n(5)) * tick // exact multiples, zero too
		}
		want := time.Duration(w.cur+1)*tick + d
		w.Schedule(d, func() { seen = append(seen, obs{want: want, fired: time.Duration(w.cur) * tick}) })
	}
	walkTo(w, w.cur+400)
	if len(seen) != 500 {
		t.Fatalf("fired %d of 500 callbacks", len(seen))
	}
	for _, o := range seen {
		if o.fired < o.want {
			t.Fatalf("fired early: want >= %v, fired %v", o.want, o.fired)
		}
		if late := o.fired - o.want; late > tick {
			t.Fatalf("fired %v late, tick is %v", late, tick)
		}
	}
}

// TestWheelFarFutureAndCascade walks every level a walk of 2^24 ticks
// reaches (levels 0–4, including the first level-4 bucket) and pins that
// each timer fires exactly on its tick. Levels 5–7, and a delay beyond the
// 64^8-tick horizon that clamps to the top level, get a placement check
// without the walk.
func TestWheelFarFutureAndCascade(t *testing.T) {
	const tick = time.Millisecond
	w := newWheel(tick)
	defer w.Close()
	// Armed at tick 0, a timer with delay (n-1) ticks is due on tick n.
	ticks := []int64{1, 2, 63, 64, 65, 127, 4095, 4096, 4097, 262143, 262144, 262145, 1<<24 - 1, 1 << 24}
	firedAt := make(map[int64]int64, len(ticks))
	for _, n := range ticks {
		n := n
		w.Schedule(time.Duration(n-1)*tick, func() { firedAt[n] = w.cur })
	}
	walkTo(w, 1<<24)
	for _, n := range ticks {
		if at, ok := firedAt[n]; !ok {
			t.Errorf("timer due on tick %d never fired", n)
		} else if at != n {
			t.Errorf("timer due on tick %d fired on tick %d", n, at)
		}
	}
	if got := w.Pending(); got != 0 {
		t.Errorf("pending after drain: %d", got)
	}

	// Nanosecond ticks keep a delay past the horizon inside a Duration.
	p := newWheel(time.Nanosecond)
	defer p.Close()
	for _, c := range []struct {
		ticks int64 // delay from the current tick
		level int
	}{
		{1 << 30, 5},
		{1 << 36, 6},
		{1 << 42, 7},
		{1 << 50, 7}, // past the horizon: clamped to the top level
	} {
		tm := p.Schedule(time.Duration(c.ticks-1), func() {}).(*wheelTimer)
		slot := int((tm.tickN >> (wheelBits * uint(c.level))) & wheelMask)
		if tm.list != &p.buckets[c.level][slot] {
			t.Errorf("delay of %d ticks not placed in level %d slot %d", c.ticks, c.level, slot)
		}
		tm.Cancel()
	}
}

// TestWheelCancelSemantics pins Cancel's contract, including the case
// that a runtime-timer scheduler cannot offer: a callback already
// collected into the due batch but not yet run can still be cancelled
// (matching Virtual).
func TestWheelCancelSemantics(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := newWheel(tick)
	defer w.Close()
	walkFor := func(d time.Duration) { walkTo(w, w.cur+int64(d/tick)) }

	ran := false
	tm := w.Schedule(50*time.Millisecond, func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("first cancel should report pending")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report not pending")
	}
	walkFor(time.Second)
	if ran {
		t.Fatal("cancelled callback ran")
	}

	// Same-batch cancellation: both timers land in one bucket; the first
	// callback cancels the second, which must then be skipped.
	var secondRan bool
	var second Timer
	w.Schedule(5*time.Millisecond, func() { second.Cancel() })
	second = w.Schedule(6*time.Millisecond, func() { secondRan = true })
	walkFor(time.Second)
	if secondRan {
		t.Fatal("same-batch cancellation did not stop the later callback")
	}

	done := false
	t3 := w.Schedule(time.Millisecond, func() { done = true })
	walkFor(time.Second)
	if !done {
		t.Fatal("timer did not fire")
	}
	if t3.Cancel() {
		t.Fatal("cancel after fire should report not pending")
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending after cancels and fires: %d", got)
	}
}

// TestWheelScheduleInsideCallback covers proxy-style rescheduling: a
// callback arming the next timeout from inside the wheel's callback
// context, including a zero-delay arm, which lands on the next tick.
func TestWheelScheduleInsideCallback(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := newWheel(tick)
	defer w.Close()
	var hops []int64
	var hop func()
	hop = func() {
		hops = append(hops, w.cur)
		if len(hops) < 5 {
			w.Schedule(30*time.Millisecond, hop)
		}
	}
	w.Schedule(0, hop)
	walkTo(w, 100)
	// tick 1, then each hop 1+3 ticks after the last.
	want := []int64{1, 5, 9, 13, 17}
	if len(hops) != len(want) {
		t.Fatalf("chained reschedule fired on ticks %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("chained reschedule fired on ticks %v, want %v", hops, want)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("pending after chain: %d", w.Pending())
	}
}

// TestWallWheelLive exercises the ticker-driven mode end to end: timers
// fire near their deadlines, cancellation holds, and Close drops pending
// callbacks without firing them.
func TestWallWheelLive(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()

	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	const n = 100
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i%20) * time.Millisecond
		w.Schedule(d, func() {
			mu.Lock()
			fired++
			mu.Unlock()
			wg.Done()
		})
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("live wheel fired %d of %d within 5s", fired, n)
	}

	// A cancelled timer must not fire.
	var cancelledRan bool
	tm := w.Schedule(50*time.Millisecond, func() { cancelledRan = true })
	if !tm.Cancel() {
		t.Fatal("cancel of pending live timer failed")
	}
	// A long timer pending at Close must be dropped.
	var afterClose bool
	w.Schedule(time.Hour, func() { afterClose = true })
	time.Sleep(100 * time.Millisecond)
	w.Close()
	if cancelledRan {
		t.Fatal("cancelled live timer fired")
	}
	if afterClose {
		t.Fatal("timer fired after Close")
	}
}

// TestWallWheelCascadeBoundary is the regression test for the cascade
// off-by-one: cascade(k) used to run while cur was still k-1, so a timer
// due on the last tick of a slot span (tickN = k+64^L-1, delta exactly
// 64^L) was re-placed into the level it was drained from and did not fire
// until the next higher-level wrap.
func TestWallWheelCascadeBoundary(t *testing.T) {
	const tick = time.Millisecond

	t.Run("slot-ends", func(t *testing.T) {
		w := newWheel(tick)
		defer w.Close()
		// Armed at tick 0, tickN = 1+ceil(d/tick) lands on and around
		// slot boundaries of levels 0–2; 191 is the empirically-late case
		// from the bug report (191%64 == 63, armed >= 64 ticks ahead).
		ticks := []int64{1, 63, 64, 127, 128, 191, 192, 4095, 4096, 4159, 8191}
		firedAt := make(map[int64]int64, len(ticks))
		for _, n := range ticks {
			n := n
			w.Schedule(time.Duration(n-1)*tick, func() { firedAt[n] = w.cur })
		}
		walkTo(w, 8300)
		for _, n := range ticks {
			at, ok := firedAt[n]
			if !ok {
				t.Errorf("timer due at tick %d never fired (pending=%d)", n, w.Pending())
				continue
			}
			if at != n {
				t.Errorf("timer due at tick %d fired at tick %d", n, at)
			}
		}
		if got := w.Pending(); got != 0 {
			t.Errorf("pending after drain: %d", got)
		}
	})

	// A flood due on the last tick of a level-1 span: 2,000 timers armed
	// from eight ticks, seven of them far enough ahead to sit in level 1
	// until the cascade at tick 3200 brings them down, the eighth placed
	// in level 0 directly. None may fire before tick 3263, and all must
	// fire on it.
	t.Run("flood", func(t *testing.T) {
		w := newWheel(tick)
		defer w.Close()
		const due = 50*64 + 63
		fired, early := 0, 0
		for _, arm := range []int64{0, 1, 100, 1000, 2000, 3000, due - 64, due - 10} {
			walkTo(w, arm)
			for i := 0; i < 250; i++ {
				w.Schedule(time.Duration(due-arm-1)*tick, func() {
					if w.cur == due {
						fired++
					} else {
						early++
					}
				})
			}
		}
		if got := w.Pending(); got != 2000 {
			t.Fatalf("armed %d timers, want 2000", got)
		}
		walkTo(w, due-1)
		if early != 0 || fired != 0 {
			t.Fatalf("%d timers fired before tick %d", early+fired, due)
		}
		walkTo(w, due)
		if fired != 2000 {
			t.Fatalf("%d of 2000 timers fired on tick %d (%d still pending)", fired, due, w.Pending())
		}
	})
}

// TestWallWheelRunSerialized checks that Run closures and callbacks never
// overlap (the single-threaded discipline core.Proxy depends on).
func TestWallWheelRunSerialized(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	var inCritical int32
	check := func() {
		if inCritical != 0 {
			t.Error("callback overlapped with Run closure")
		}
		inCritical++
		time.Sleep(100 * time.Microsecond)
		inCritical--
	}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		w.Schedule(time.Duration(i%10)*time.Millisecond, check)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(check)
		}()
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
}

// TestWheelStress races Schedule/Cancel/fire on a live wheel under -race.
func TestWheelStress(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var timers []Timer
			for i := 0; i < 500; i++ {
				d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
				timers = append(timers, w.Schedule(d, func() {}))
				if rng.Float64() < 0.5 {
					timers[rng.Intn(len(timers))].Cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	time.Sleep(30 * time.Millisecond)
}

// --- live-scheduler race coverage ---

// TestWallScheduleCancelCloseRaces hammers the live wheel's Schedule,
// Cancel and Close paths from several goroutines; -race verifies the
// serialization claims in the package doc. Each Cancel runs in a Run
// closure, as the wheel's contract on stale handles asks.
func TestWallScheduleCancelCloseRaces(t *testing.T) {
	for round := 0; round < 20; round++ {
		w := NewWallWheel(time.Millisecond)
		var counter int // written only under w's serialization
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + g)))
				var timers []Timer
				for i := 0; i < 50; i++ {
					d := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
					timers = append(timers, w.Schedule(d, func() { counter++ }))
					switch {
					case rng.Float64() < 0.3 && len(timers) > 0:
						tm := timers[rng.Intn(len(timers))]
						w.Run(func() { tm.Cancel() })
					case rng.Float64() < 0.1:
						w.Run(func() { counter++ })
					}
				}
			}(g)
		}
		wg.Wait()
		w.Close()
		// Late fires after Close must be dropped, not crash or race.
		time.Sleep(3 * time.Millisecond)
	}
}

// TestWallCloseDuringCallbacks verifies Close blocks until in-flight
// callbacks finish and drops everything after.
func TestWallCloseDuringCallbacks(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	started := make(chan struct{})
	var finished int32
	w.Schedule(0, func() {
		close(started)
		time.Sleep(5 * time.Millisecond)
		finished = 1 // safe: Close must not return before this line
	})
	<-started
	w.Close()
	if finished != 1 {
		t.Fatal("Close returned before the in-flight callback finished")
	}
}
