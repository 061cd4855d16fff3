package simtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

var w0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestWheelFireOrderMatchesVirtual is the PR 5 property test: for identical
// schedules (same delays, same arm order, same cancellations), the manual
// wheel fires callbacks in exactly the order Virtual does.
func TestWheelFireOrderMatchesVirtual(t *testing.T) {
	const rounds = 50
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		n := 5 + rng.Intn(60)
		delays := make([]time.Duration, n)
		for i := range delays {
			// Sub-tick jitter on purpose: ordering must survive several
			// deadlines collapsing into the same bucket.
			delays[i] = time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
		}
		cancel := make([]bool, n)
		for i := range cancel {
			cancel[i] = rng.Float64() < 0.2
		}
		horizon := time.Second

		run := func(s Scheduler, drive func(time.Duration)) []int {
			var order []int
			timers := make([]Timer, n)
			for i, d := range delays {
				i := i
				timers[i] = s.Schedule(d, func() { order = append(order, i) })
			}
			for i, c := range cancel {
				if c {
					timers[i].Cancel()
				}
			}
			drive(horizon)
			return order
		}

		v := NewVirtual(w0)
		want := run(v, v.Advance)
		w := NewWheel(w0, 10*time.Millisecond)
		got := run(w, w.Advance)
		w.Close()

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

// TestWheelAccuracyBoundedByOneTick pins the acceptance criterion: a
// callback never fires before its requested instant and at most one tick
// after it.
func TestWheelAccuracyBoundedByOneTick(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := NewWheel(w0, tick)
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	type obs struct {
		want  time.Time
		fired time.Time
	}
	var seen []obs
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Int63n(int64(3 * time.Second)))
		at := w0.Add(d)
		w.Schedule(d, func() { seen = append(seen, obs{want: at, fired: w.Now()}) })
	}
	w.Advance(4 * time.Second)
	if len(seen) != 500 {
		t.Fatalf("fired %d of 500 callbacks", len(seen))
	}
	for _, o := range seen {
		if o.fired.Before(o.want) {
			t.Fatalf("fired early: want >= %v, fired %v", o.want, o.fired)
		}
		if late := o.fired.Sub(o.want); late > tick {
			t.Fatalf("fired %v late, tick is %v", late, tick)
		}
	}
}

// TestWheelFarFutureAndCascade exercises deadlines spanning every wheel
// level, including beyond the level-0 horizon, plus a year-scale jump.
func TestWheelFarFutureAndCascade(t *testing.T) {
	w := NewWheel(w0, time.Millisecond)
	defer w.Close()
	delays := []time.Duration{
		0,
		time.Millisecond,
		63 * time.Millisecond,
		64 * time.Millisecond, // first level-1 bucket
		5 * time.Second,
		10 * time.Minute, // level 3 at 1ms ticks
		24 * time.Hour,
		365 * 24 * time.Hour, // top levels
	}
	fired := make([]bool, len(delays))
	for i, d := range delays {
		i := i
		w.Schedule(d, func() { fired[i] = true })
	}
	w.Advance(366 * 24 * time.Hour)
	for i, f := range fired {
		if !f {
			t.Errorf("delay %v never fired", delays[i])
		}
	}
	if got := w.Pending(); got != 0 {
		t.Errorf("pending after drain: %d", got)
	}
}

// TestWheelCancelSemantics pins Cancel's contract, including the case
// that a runtime-timer scheduler cannot offer: a callback already
// collected into the due batch but not yet run can still be cancelled
// (matching Virtual).
func TestWheelCancelSemantics(t *testing.T) {
	w := NewWheel(w0, 10*time.Millisecond)
	defer w.Close()

	ran := false
	tm := w.Schedule(50*time.Millisecond, func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("first cancel should report pending")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report not pending")
	}
	w.Advance(time.Second)
	if ran {
		t.Fatal("cancelled callback ran")
	}

	// Same-batch cancellation: both timers land in one bucket; the first
	// callback cancels the second, which must then be skipped.
	var secondRan bool
	var second Timer
	w.Schedule(5*time.Millisecond, func() { second.Cancel() })
	second = w.Schedule(6*time.Millisecond, func() { secondRan = true })
	w.Advance(time.Second)
	if secondRan {
		t.Fatal("same-batch cancellation did not stop the later callback")
	}

	done := false
	t3 := w.Schedule(time.Millisecond, func() { done = true })
	w.Advance(time.Second)
	if !done {
		t.Fatal("timer did not fire")
	}
	if t3.Cancel() {
		t.Fatal("cancel after fire should report not pending")
	}
}

// TestWheelScheduleInsideCallback covers proxy-style rescheduling: a
// callback arming the next timeout from inside the wheel's callback
// context, including zero-delay chains.
func TestWheelScheduleInsideCallback(t *testing.T) {
	w := NewWheel(w0, 10*time.Millisecond)
	defer w.Close()
	var hops []time.Time
	var hop func()
	hop = func() {
		hops = append(hops, w.Now())
		if len(hops) < 5 {
			w.Schedule(30*time.Millisecond, hop)
		}
	}
	w.Schedule(0, hop)
	w.Advance(time.Second)
	if len(hops) != 5 {
		t.Fatalf("chained reschedule fired %d of 5 hops", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if !hops[i].After(hops[i-1]) {
			t.Fatalf("hops not monotonic: %v", hops)
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

// TestWallWheelCascadeBoundary is the regression test for the live-mode
// cascade off-by-one: cascade(k) used to run while cur was still k-1, so a
// timer due on the last tick of a slot span (tickN = k+64^L-1, delta
// exactly 64^L) was re-placed into the level it was drained from and did
// not fire until the next higher-level wrap. The test drives advanceLive
// deterministically — a live wheel whose ticker never fires within the
// test, with start moved into the past by hand — and pins that every
// timer, including the tickN%64==63 boundary cases, fires exactly on its
// tick.
func TestWallWheelCascadeBoundary(t *testing.T) {
	const tick = time.Hour // the ticker goroutine stays asleep for the whole test
	w := NewWallWheel(tick)
	defer w.Close()

	// Deltas chosen so tickN = 1+ceil(d/tick) lands on and around slot
	// boundaries of levels 0–2; 191 is the empirically-late case from the
	// bug report (191%64 == 63, armed >= 64 ticks ahead).
	ticks := []int64{1, 63, 64, 127, 128, 191, 192, 4095, 4096, 4159, 8191}
	firedAt := make(map[int64]int64, len(ticks))
	for _, n := range ticks {
		n := n
		w.Schedule(time.Duration(n-1)*tick, func() { firedAt[n] = w.cur })
	}

	// Drive the walk directly: move start into the past so the wall clock
	// has "reached" the target tick, then advance. No concurrency — the
	// callbacks run on this goroutine inside advanceLive.
	w.mu.lock()
	w.start = w.start.Add(-8300 * tick)
	w.mu.unlock()
	w.advanceLive()

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
