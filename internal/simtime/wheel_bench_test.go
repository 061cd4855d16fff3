package simtime

import (
	"testing"
	"time"
)

// BenchmarkTimerWheel measures arming + cancelling one timer while 100k
// timers stay outstanding — the host's steady state, where every queued
// notification holds a delay or expiry timer. The sub-benchmarks compare
// the wheel against the runtime-timer baseline it replaces, raw
// time.AfterFunc.
func BenchmarkTimerWheel(b *testing.B) {
	const outstanding = 100_000
	nop := func() {}

	b.Run("Wheel", func(b *testing.B) {
		w := NewWallWheel(10 * time.Millisecond)
		defer w.Close()
		for i := 0; i < outstanding; i++ {
			w.Schedule(time.Hour, nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Schedule(time.Hour, nop).Cancel()
		}
	})

	b.Run("AfterFunc", func(b *testing.B) {
		timers := make([]*time.Timer, outstanding)
		for i := range timers {
			timers[i] = time.AfterFunc(time.Hour, nop)
		}
		defer func() {
			for _, t := range timers {
				t.Stop()
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			time.AfterFunc(time.Hour, nop).Stop()
		}
	})
}
