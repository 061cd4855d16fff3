package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucketed histogram of nanosecond durations: 32 linear
// sub-buckets per power of two, so a bucket is at most 3.1 % wide and a
// quantile interpolated inside its bucket lands well inside every bound in
// BENCHMARK.json. It is not synchronised; each recording goroutine owns its
// own and they are merged once the goroutines have stopped.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// 2^40 ns is over 18 minutes, beyond every run's hard deadline.
	histMaxExp  = 40 - histSubBits
	histBuckets = (histMaxExp + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(int64(i%histSub+histSub) << uint(e))
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo := histLower(i)
			hi := lo + 1
			if i+1 < histBuckets {
				hi = histLower(i + 1)
			}
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return histLower(histBuckets - 1)
}

func mergeHists(hs []*hist) *hist {
	var out hist
	for _, h := range hs {
		out.merge(h)
	}
	return &out
}

// median of a slice of slice-values; the input is not modified.
func median(vs []float64) float64 {
	return quantileOf(vs, 0.5)
}

// lowest and highest pick a saturated workload's best slice. A closed loop or
// a fixed amount of work runs as fast as the box lets it, and on a shared box
// interference only ever takes capacity away — for minutes at a time, without
// showing up as stolen CPU — so the best of ten slices repeats far better than
// their median (fanout-burst throughput: 11 % against 20 % run-to-run spread
// over the same twenty noisy runs). Open-loop workloads keep the median: their
// load is fixed, so their best slice is only their luckiest.
func lowest(vs []float64) float64  { return quantileOf(vs, 0) }
func highest(vs []float64) float64 { return quantileOf(vs, 1) }

// quantileOf interpolates the q-quantile of a small sample.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}
