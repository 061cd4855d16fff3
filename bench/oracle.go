package main

import (
	"container/heap"
	"sync"
	"time"
)

// lossAgainstOnline is the paper's loss (§3.1) measured on the live stack:
// the share of notifications an on-line policy would have put in front of the
// user that the run's reads never returned. The on-line baseline is replayed
// here, outside the program, from the generator and the instants the reads
// were actually issued: everything at or above the threshold reaches the
// device when it is due, and each read consumes the readN best unexpired.
func (r *liveRun) lossAgainstOnline() float64 {
	var baseline, lost int
	for i, s := range r.sinks {
		topic := i % r.sp.topics
		var q rankHeap
		seq := uint64(0)
		for _, at := range s.readAt {
			for ; seq < r.sched.total && !r.sched.due(seq).After(at); seq++ {
				if r.gen.topicOf(seq) != topic {
					continue
				}
				if rank := r.gen.rankOf(seq); rank >= r.sp.policy.Threshold {
					heap.Push(&q, ranked{seq: seq, rank: rank})
				}
			}
			for taken := 0; taken < r.sp.readN && q.Len() > 0; {
				best := heap.Pop(&q).(ranked)
				if r.sched.due(best.seq).Add(r.sp.lifetime).Before(at) {
					continue // expired before this read
				}
				taken++
				baseline++
				if _, ok := s.readIDs[best.seq]; !ok {
					lost++
				}
			}
		}
	}
	if baseline == 0 {
		return 0
	}
	return 100 * float64(lost) / float64(baseline)
}

type ranked struct {
	seq  uint64
	rank float64
}

// rankHeap pops the highest rank first and, like msg.Notification.Before,
// the older of two equals.
type rankHeap []ranked

func (h rankHeap) Len() int { return len(h) }
func (h rankHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank > h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h rankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x any)   { *h = append(*h, x.(ranked)) }
func (h *rankHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// depthSampler reads every session's proxy queue depth through
// Host.SessionSnapshot every 100 ms (traced on-demand runs only). The zero
// value is a sampler that was never started.
type depthSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	depths []float64
}

func (d *depthSampler) start(r *liveRun) {
	d.stop = make(chan struct{})
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case now := <-tick.C:
				if r.sliceOf(now) < 0 {
					continue
				}
				for i := range r.top.devs {
					snap, ok := r.top.host.SessionSnapshot(deviceName(i), r.gen.topics[i%r.sp.topics])
					if ok {
						d.depths = append(d.depths, float64(snap.Outgoing+snap.Prefetch+snap.Holding))
					}
				}
			}
		}
	}()
}

func (d *depthSampler) stopAndWait() {
	if d.stop != nil {
		close(d.stop)
		d.wg.Wait()
	}
}

func (d *depthSampler) p95() float64 { return quantileOf(d.depths, 0.95) }
