package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusage is getrusage(RUSAGE_SELF); a failure reads as all zeroes.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// heapAllocs reads the cumulative count of heap objects allocated without
// stopping the world, so it can be sampled at every slice boundary.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// stealTicks is the time (in 1/100 s, summed over CPUs) this guest was ready
// to run but its virtual CPUs were not scheduled: the shared box's own noise.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	fields := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}

// environment describes where the numbers were taken; it is printed ahead of
// the report, never inside the gated result line.
type environment struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Kernel     string
	Transport  string
}

func readEnvironment() environment {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Transport:  "loopback, in-process",
	}
}

// sleepUntil blocks the calling goroutine's thread in nanosleep(2) until t.
// The generators use it instead of time.Sleep because an idle Go process
// waits for its timers in epoll_wait, whose timeout is whole milliseconds:
// runtime timers then fire up to a millisecond late, which is longer than
// most latencies measured here and would be booked as generator lag.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: go round again
	}
}
