package main

import (
	"strconv"
	"sync"
	"time"

	"lasthop/internal/msg"
)

// publisherName is the single principal every topic is advertised under, so
// that any publisher connection may feed any topic.
const publisherName = "bench"

// generator derives every field of notification number seq from (seed, seq)
// alone, so what the program under test is fed does not depend on which
// connection happened to carry it or on how fast the run went.
type generator struct {
	seed    uint64
	sp      *spec
	topics  []string
	payload []byte // seeded bytes; each payload is a window into it
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newGenerator(sp *spec, seed uint64) *generator {
	g := &generator{seed: seed, sp: sp, topics: make([]string, sp.topics)}
	for i := range g.topics {
		g.topics[i] = "bench/t" + strconv.Itoa(i)
	}
	g.payload = make([]byte, 4096+sp.payload)
	x := seed
	for i := range g.payload {
		if i%8 == 0 {
			x = splitmix64(x)
		}
		g.payload[i] = byte(x >> (8 * uint(i%8)))
	}
	return g
}

// topicOf is the topic index of notification seq: round robin under a seeded
// rotation per round, so every topic gets the same rate but no fixed order.
func (g *generator) topicOf(seq uint64) int {
	n := uint64(len(g.topics))
	round := seq / n
	return int((seq + splitmix64(g.seed^round)) % n)
}

func (g *generator) hash(seq uint64) uint64 {
	return splitmix64(g.seed ^ (seq * 0x9e3779b97f4a7c15))
}

// rankOf is notification seq's rank, uniform in [0, 100) in steps of 0.001 —
// a publisher's score, not a full-precision double: wire's strict frame
// decoder hands any number of more than 15 significant digits to
// encoding/json, and that fallback is not the path this benchmark is after.
func (g *generator) rankOf(seq uint64) float64 {
	return float64(g.hash(seq)>>11%100000) / 1000
}

// fill writes notification seq into n. due is the instant it was meant to
// enter the system; every latency is counted from it.
func (g *generator) fill(n *msg.Notification, seq uint64, due time.Time) {
	n.ID = msg.ID(strconv.FormatUint(seq, 10))
	n.Topic = g.topics[g.topicOf(seq)]
	n.Publisher = publisherName
	n.Rank = g.rankOf(seq)
	n.Published = due
	if g.sp.lifetime > 0 {
		n.Expires = due.Add(g.sp.lifetime)
	}
	off := int(g.hash(seq) % 4096)
	n.Payload = append(n.Payload[:0], g.payload[off:off+g.sp.payload]...)
}

// seqOf recovers the sequence number from a notification ID.
func seqOf(id msg.ID) (uint64, bool) {
	seq, err := strconv.ParseUint(string(id), 10, 64)
	return seq, err == nil
}

// schedule is the one open-loop scheduler: notification seq is due at
// start + seq/rate whether or not the system kept up, and the publisher
// connections only claim what is already due. It never skips or thins.
type schedule struct {
	start time.Time
	gap   float64 // nanoseconds between consecutive due times
	total uint64

	mu   sync.Mutex
	next uint64
}

func newSchedule(start time.Time, rate float64, span time.Duration) *schedule {
	return &schedule{start: start, gap: 1e9 / rate, total: uint64(rate * span.Seconds())}
}

func (s *schedule) due(seq uint64) time.Time {
	return s.start.Add(time.Duration(float64(seq) * s.gap))
}

// claim hands out up to max notifications that are due at now. With nothing
// due it returns n == 0 and when the next one is; done reports that the
// schedule is exhausted.
func (s *schedule) claim(now time.Time, max int) (first uint64, n int, next time.Time, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.total {
		return 0, 0, time.Time{}, true
	}
	dueCount := uint64(float64(now.Sub(s.start))/s.gap) + 1
	if now.Before(s.start) {
		dueCount = 0
	}
	if dueCount > s.total {
		dueCount = s.total
	}
	if dueCount <= s.next {
		return 0, 0, s.due(s.next), false
	}
	n = int(dueCount - s.next)
	if n > max {
		n = max
	}
	first = s.next
	s.next += uint64(n)
	return first, n, time.Time{}, false
}
