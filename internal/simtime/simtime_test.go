package simtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual(t0)
	var got []int
	v.Schedule(3*time.Second, func() { got = append(got, 3) })
	v.Schedule(1*time.Second, func() { got = append(got, 1) })
	v.Schedule(2*time.Second, func() { got = append(got, 2) })
	v.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if !v.Now().Equal(t0.Add(3 * time.Second)) {
		t.Errorf("Now = %v", v.Now())
	}
}

func TestVirtualFIFOAtSameInstant(t *testing.T) {
	v := NewVirtual(t0)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		v.Schedule(time.Second, func() { got = append(got, i) })
	}
	v.RunUntilIdle()
	for i, g := range got {
		if g != i {
			t.Fatalf("same-instant callbacks out of FIFO order: %v", got)
		}
	}
}

func TestVirtualClockDuringCallback(t *testing.T) {
	v := NewVirtual(t0)
	var at time.Time
	v.Schedule(time.Minute, func() { at = v.Now() })
	v.RunUntilIdle()
	if !at.Equal(t0.Add(time.Minute)) {
		t.Errorf("Now inside callback = %v", at)
	}
}

func TestVirtualNegativeDelay(t *testing.T) {
	v := NewVirtual(t0)
	ran := false
	v.Schedule(-time.Hour, func() { ran = true })
	v.RunUntilIdle()
	if !ran {
		t.Error("negative-delay callback dropped")
	}
	if !v.Now().Equal(t0) {
		t.Errorf("clock moved backward: %v", v.Now())
	}
}

func TestVirtualCancel(t *testing.T) {
	v := NewVirtual(t0)
	ran := false
	timer := v.Schedule(time.Second, func() { ran = true })
	if !timer.Cancel() {
		t.Error("first Cancel returned false")
	}
	if timer.Cancel() {
		t.Error("second Cancel returned true")
	}
	v.RunUntilIdle()
	if ran {
		t.Error("cancelled callback ran")
	}
	if v.Pending() != 0 {
		t.Errorf("Pending = %d", v.Pending())
	}
}

func TestVirtualCancelAfterFire(t *testing.T) {
	v := NewVirtual(t0)
	timer := v.Schedule(time.Second, func() {})
	v.RunUntilIdle()
	if timer.Cancel() {
		t.Error("Cancel after fire returned true")
	}
}

func TestVirtualRunUntil(t *testing.T) {
	v := NewVirtual(t0)
	var got []int
	v.Schedule(time.Second, func() { got = append(got, 1) })
	v.Schedule(time.Hour, func() { got = append(got, 2) })
	v.RunUntil(t0.Add(time.Minute))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("after RunUntil(1m): %v", got)
	}
	if !v.Now().Equal(t0.Add(time.Minute)) {
		t.Errorf("Now = %v", v.Now())
	}
	if v.Pending() != 1 {
		t.Errorf("Pending = %d", v.Pending())
	}
	// RunUntil into the past is a no-op.
	v.RunUntil(t0)
	if !v.Now().Equal(t0.Add(time.Minute)) {
		t.Error("RunUntil moved the clock backward")
	}
	v.Advance(2 * time.Hour)
	if len(got) != 2 {
		t.Errorf("after Advance: %v", got)
	}
	v.Advance(-time.Hour)
	if !v.Now().Equal(t0.Add(time.Minute).Add(2 * time.Hour)) {
		t.Error("negative Advance moved the clock")
	}
}

func TestVirtualScheduleAtPast(t *testing.T) {
	v := NewVirtual(t0)
	v.Advance(time.Hour)
	fired := t0
	v.ScheduleAt(t0, func() { fired = v.Now() })
	v.RunUntilIdle()
	if !fired.Equal(t0.Add(time.Hour)) {
		t.Errorf("past-scheduled callback fired at %v", fired)
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	v := NewVirtual(t0)
	var got []time.Duration
	v.Schedule(time.Second, func() {
		got = append(got, v.Now().Sub(t0))
		v.Schedule(time.Second, func() {
			got = append(got, v.Now().Sub(t0))
		})
	})
	v.RunUntilIdle()
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Errorf("nested scheduling times = %v", got)
	}
}

// TestVirtualOrderProperty: any batch of delays runs in non-decreasing time
// order with the clock matching each deadline.
func TestVirtualOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		v := NewVirtual(t0)
		var fired []time.Time
		for _, d := range delays {
			d := time.Duration(d) * time.Millisecond
			v.Schedule(d, func() { fired = append(fired, v.Now()) })
		}
		v.RunUntilIdle()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The TestWall* tests pin the live scheduler's contract on the wall-clock
// wheel every live proxy runs on.

func TestWallScheduleAndRun(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	done := make(chan struct{})
	var mu sync.Mutex
	var got []string
	w.Schedule(5*time.Millisecond, func() {
		mu.Lock()
		got = append(got, "timer")
		mu.Unlock()
		close(done)
	})
	w.Run(func() {
		mu.Lock()
		got = append(got, "run")
		mu.Unlock()
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Errorf("got %v", got)
	}
}

// TestWallCancel cancels from a Run closure, as the wheel's contract on
// Cancel asks: serialized with the callbacks.
func TestWallCancel(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	fired := make(chan struct{}, 1)
	var first, second bool
	w.Run(func() {
		timer := w.Schedule(20*time.Millisecond, func() { fired <- struct{}{} })
		first = timer.Cancel()
		second = timer.Cancel()
	})
	if !first {
		t.Error("Cancel returned false")
	}
	if second {
		t.Error("second Cancel returned true")
	}
	select {
	case <-fired:
		t.Error("cancelled wall timer fired")
	case <-time.After(60 * time.Millisecond):
	}
}

func TestWallClose(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	fired := make(chan struct{}, 1)
	w.Schedule(30*time.Millisecond, func() { fired <- struct{}{} })
	w.Close()
	w.Run(func() { t.Error("Run after Close executed") })
	select {
	case <-fired:
		t.Error("callback after Close executed")
	case <-time.After(80 * time.Millisecond):
	}
}

func TestWallNow(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	before := time.Now()
	got := w.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Now = %v outside [%v, %v]", got, before, after)
	}
}

func TestWallSerialization(t *testing.T) {
	w := NewWallWheel(time.Millisecond)
	defer w.Close()
	const n = 50
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(func() { counter++ }) // safe only if serialized
		}()
	}
	done := make(chan struct{})
	w.Schedule(time.Millisecond, func() { counter++ })
	w.Schedule(30*time.Millisecond, func() { close(done) })
	wg.Wait()
	<-done
	w.Run(func() {
		if counter != n+1 {
			t.Errorf("counter = %d, want %d", counter, n+1)
		}
	})
}

// TestCancelFromBatchOrRunWins pins the contract core's expiry timer
// relies on, for Virtual and for the wheel, walked by hand and by its
// ticker: a Cancel issued serialized with the callbacks — from an earlier
// callback of the batch that is firing, or from a Run closure — returns
// true, and the cancelled callback never runs. No cancelled timer can
// leave a stale fire behind.
func TestCancelFromBatchOrRunWins(t *testing.T) {
	type clock struct {
		s Scheduler
		// runTo fires every callback due by the instant (a live wheel
		// waits for its ticker to get there).
		runTo func(time.Time)
		close func()
	}
	clocks := map[string]func() clock{
		"virtual": func() clock {
			v := NewVirtual(t0)
			return clock{v, v.RunUntil, func() {}}
		},
		"manual-wheel": func() clock {
			w := newWheel(time.Millisecond)
			return clock{w, func(at time.Time) {
				walkTo(w, int64(at.Sub(w.start))/w.tickNs)
			}, w.Close}
		},
		"live-wheel": func() clock {
			w := NewWallWheel(time.Millisecond)
			return clock{w, func(at time.Time) {
				done := make(chan struct{})
				w.Schedule(time.Until(at), func() { close(done) })
				<-done
			}, w.Close}
		},
	}
	for name, mk := range clocks {
		t.Run(name, func(t *testing.T) {
			c := mk()
			defer c.close()
			var ran []string
			var fromBatch, fromRun bool
			// Three timers due on one instant form one batch; the first
			// cancels the second. A fourth, later timer is cancelled from
			// Run before it is due.
			var due time.Time
			c.s.Run(func() {
				due = c.s.Now().Add(5 * time.Millisecond)
				var second Timer
				c.s.Schedule(5*time.Millisecond, func() {
					ran = append(ran, "first")
					fromBatch = second.Cancel()
				})
				second = c.s.Schedule(5*time.Millisecond, func() { ran = append(ran, "second") })
				c.s.Schedule(5*time.Millisecond, func() { ran = append(ran, "third") })
			})
			var later Timer
			c.s.Run(func() { later = c.s.Schedule(10*time.Millisecond, func() { ran = append(ran, "later") }) })
			c.s.Run(func() { fromRun = later.Cancel() })
			c.runTo(due.Add(20 * time.Millisecond))
			c.s.Run(func() {
				if !fromBatch {
					t.Error("Cancel from an earlier callback of the batch returned false")
				}
				if !fromRun {
					t.Error("Cancel from Run returned false")
				}
				if len(ran) != 2 || ran[0] != "first" || ran[1] != "third" {
					t.Errorf("callbacks ran %v, want [first third]", ran)
				}
			})
		})
	}
}
