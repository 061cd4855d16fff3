package main

import (
	"sync/atomic"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/pubsub"
)

// The ledger is the harness's own tracing: spans recorded from outside the
// program, in memory, around calls into its layers. Per notification it
// keeps t1 (PublishBatch called) and t2 (an in-process subscriber on the
// broker saw the notification routed); t0 (due) travels in the notification's
// Published field and t4 is taken in the device's push callback. So
//
//	(t1-t0) generator lag + (t2-t1) wire ingress + (t4-t2) egress = t4-t0
//
// holds by construction for every delivery whose stamps are all present.
type ledger struct {
	base   time.Time
	chunks [ledgerChunks]atomic.Pointer[[ledgerChunk]stamp]
}

const (
	ledgerChunk  = 1 << 14
	ledgerChunks = 1 << 10 // 16.7 M notifications, far beyond any run
)

// stamp holds nanoseconds since ledger.base; zero means not stamped.
type stamp struct{ t1, t2 atomic.Int64 }

func newLedger(base time.Time) *ledger { return &ledger{base: base} }

func (l *ledger) since(t time.Time) int64 { return int64(t.Sub(l.base)) }

// slot returns notification seq's stamps, allocating its chunk on first use.
func (l *ledger) slot(seq uint64) *stamp {
	ci := seq / ledgerChunk
	if ci >= ledgerChunks {
		return nil
	}
	c := l.chunks[ci].Load()
	if c == nil {
		l.chunks[ci].CompareAndSwap(nil, new([ledgerChunk]stamp))
		c = l.chunks[ci].Load()
	}
	return &c[seq%ledgerChunk]
}

// lookup is slot without allocation: nil when seq was never stamped.
func (l *ledger) lookup(seq uint64) *stamp {
	ci := seq / ledgerChunk
	if ci >= ledgerChunks {
		return nil
	}
	if c := l.chunks[ci].Load(); c != nil {
		return &c[seq%ledgerChunk]
	}
	return nil
}

// ingress folds t2-t1 of every fully stamped notification into a histogram.
// Call it once the run has quiesced.
func (l *ledger) ingress() *hist {
	var h hist
	for i := range l.chunks {
		c := l.chunks[i].Load()
		if c == nil {
			continue
		}
		for j := range c {
			t1, t2 := c[j].t1.Load(), c[j].t2.Load()
			if t1 != 0 && t2 != 0 {
				h.add(t2 - t1)
			}
		}
	}
	return &h
}

// tap is the in-process subscriber that takes t2. Its name sorts before the
// host's, and the broker walks subscribers in name order, so t2 is on the
// books before the host's copy can reach any device.
type tap struct{ led *ledger }

const tapName = "bench-a-tap"

var _ pubsub.Subscriber = tap{}

func (t tap) Deliver(n *msg.Notification) {
	if seq, ok := seqOf(n.ID); ok {
		if st := t.led.slot(seq); st != nil {
			st.t2.Store(t.led.since(time.Now()))
		}
	}
	burst.Notes.Put(n)
}

func (tap) DeliverRankUpdate(msg.RankUpdate) {}
