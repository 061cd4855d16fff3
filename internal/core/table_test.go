package core

// Tests and benchmarks of a topic's per-notification state: what one
// remembered notification costs, what Figure 7's handlers cost on it, and
// a transcript of every handler at a history short enough that eviction
// runs all the time.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/trace"
)

// discard is a BatchForwarder that accepts every batch and keeps nothing.
type discard struct{}

func (discard) ForwardBatch([]*msg.Notification) error { return nil }

// BenchmarkNotifyOnline: on-line arrivals into a topic whose 4,096-entry
// history is full, so every arrival also evicts the oldest. Notes are
// recycled once their ID has left the history.
func BenchmarkNotifyOnline(b *testing.B) {
	const limit = 4096
	cfg := OnlineConfig("t")
	cfg.HistoryLimit = limit
	p := New(newTestClock(t0), discard{})
	if err := p.AddTopic(cfg); err != nil {
		b.Fatal(err)
	}
	notes := make([]msg.Notification, 2*limit)
	for i := range notes {
		notes[i] = msg.Notification{ID: msg.ID(fmt.Sprintf("on%06d", i)), Topic: "t", Rank: float64(i % 10), Published: t0}
	}
	for i := range notes[:limit] {
		p.Notify(&notes[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p.Notify(&notes[(limit+i)%len(notes)])
	}
}

// BenchmarkRetainedBytesPerID reports the heap a topic keeps per
// remembered notification, the notification itself excluded: 100,000
// arrivals, measured between two settled heaps. On the on-line topic every
// arrival is forwarded and only remembered; on the on-demand topic every
// arrival also waits in the prefetch queue and the expiry index.
func BenchmarkRetainedBytesPerID(b *testing.B) {
	const arrivals = 100_000
	for _, c := range []struct {
		name   string
		cfg    TopicConfig
		expiry time.Duration
	}{
		{"online", OnlineConfig("t"), 0},
		{"ondemand-expiry", OnDemandConfig("t", 8), 24 * time.Hour},
	} {
		b.Run(c.name, func(b *testing.B) {
			var perID float64
			for range b.N {
				notes := make([]msg.Notification, arrivals)
				for i := range notes {
					notes[i] = msg.Notification{ID: msg.ID(fmt.Sprintf("r%07d", i)), Topic: "t", Rank: float64(i % 10), Published: t0}
					if c.expiry > 0 {
						notes[i].Expires = t0.Add(c.expiry + time.Duration(i)*time.Millisecond)
					}
				}
				p := New(newTestClock(t0), discard{})
				if err := p.AddTopic(c.cfg); err != nil {
					b.Fatal(err)
				}
				before := settledHeap()
				for i := range notes {
					p.Notify(&notes[i])
				}
				after := settledHeap()
				if s, _ := p.Snapshot("t"); s.History != arrivals {
					b.Fatalf("history holds %d, want %d", s.History, arrivals)
				}
				perID = float64(after-before) / arrivals
				runtime.KeepAlive(p)
				runtime.KeepAlive(notes)
			}
			b.ReportMetric(perID, "B/id")
		})
	}
}

// settledHeap returns the live heap after two collections.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// sorted returns a set's IDs in order.
func sorted(set msg.IDSet) []msg.ID {
	out := make([]msg.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// tablePreset widens a policy preset so a program reaches every state a
// notification can be in: a 16-entry history that evicts (and reuses
// evicted IDs' state) all the time, a rank threshold to drop below and
// boost across, the delay stage, a quiet window on the on-line path
// (interrupts reach it from the on-demand presets) and a daily cap.
func tablePreset(cfg TopicConfig) TopicConfig {
	cfg.HistoryLimit = 16
	cfg.RankThreshold = 2
	cfg.Delay = 30 * time.Second
	cfg.InterruptRank = 9
	cfg.Quiet = []QuietWindow{{Start: 3 * time.Hour, End: 4 * time.Hour}}
	if cfg.Policy == Online {
		cfg.DailyOnlineCap = 25
	}
	if cfg.Policy == Buffer && !cfg.AutoExpirationThreshold {
		cfg.ExpirationThreshold = 10 * time.Minute
	}
	return cfg
}

// eventLog is a tracer that keeps each event's text.
type eventLog struct{ lines []string }

func (l *eventLog) Record(e trace.Event) { l.lines = append(l.lines, fmt.Sprintf("%+v", e)) }

// tableProgram drives one proxy through a seeded program of every input
// Figure 7 handles — arrivals (some re-using IDs the history has
// evicted), rank revisions by republish and by update, reads with known,
// unknown and repeated client events, link flaps, whole and partial
// forward failures, resumes that report forwarded IDs lost in flight,
// clock advances and Export→Import round trips — and hashes the stats,
// the exported topic state with its queue lists in stored order, the
// trace events and the forwarded IDs after every step. Trace events are
// sorted within a step, since a resume reports its losses in no set order.
// Timer instants follow expiryProgram's rule, so the timing wheel runs the
// same program.
func tableProgram(t *testing.T, cfg TopicConfig, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	log := &eventLog{}
	p := New(sched, dev)
	p.SetTracer(log)
	if err := p.AddTopic(cfg); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	deadlines := map[time.Time]bool{}
	var ids []msg.ID
	up, sent := true, 0
	for step := range 400 {
		now := sched.Now()
		var op string
		switch k := rng.Intn(18); {
		case k < 5:
			id := msg.ID(fmt.Sprintf("n%03d", step))
			if len(ids) > 40 && rng.Intn(8) == 0 {
				id = ids[rng.Intn(len(ids)-30)] // long evicted: arrives as new
			}
			n := &msg.Notification{ID: id, Topic: "t", Rank: rng.Float64() * 10, Published: now}
			for expirable := rng.Intn(3) != 0; expirable && n.NeverExpires(); {
				span := []int{600, 3600, 86400}[rng.Intn(3)]
				life := time.Duration(1+rng.Intn(span))*time.Second + time.Duration(1+rng.Intn(999))*time.Millisecond
				if at := now.Add(life); !deadlines[at] {
					deadlines[at] = true
					n.Expires = at
				}
			}
			ids = append(ids, id)
			op = fmt.Sprintf("notify %s rank %.3f expires %v", id, n.Rank, n.Expires)
			p.Notify(n)
		case k == 5 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			rank := rng.Float64() * 10
			op = fmt.Sprintf("re-notify %s rank %.3f", id, rank)
			p.Notify(&msg.Notification{ID: id, Topic: "t", Rank: rank, Published: now})
		case (k == 6 || k == 7) && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			rank := rng.Float64() * 2
			if k == 7 {
				rank = 2 + rng.Float64()*8
			}
			op = fmt.Sprintf("rank %s %.3f", id, rank)
			p.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: id, NewRank: rank})
		case k == 8:
			up = !up
			op = fmt.Sprintf("network %v", up)
			p.SetNetwork(up)
		case k == 9 || k == 10:
			s, _ := p.Snapshot("t")
			req := msg.ReadRequest{Topic: "t", N: rng.Intn(6), QueueSize: s.QueueSizeView, Peek: rng.Intn(6) == 0}
			for i := len(dev.received) - 1; i >= 0 && len(req.ClientEvents) < 3; i -= 1 + rng.Intn(3) {
				req.ClientEvents = append(req.ClientEvents, dev.received[i].ID)
			}
			if rng.Intn(3) == 0 {
				req.ClientEvents = append(req.ClientEvents, msg.ID(fmt.Sprintf("ghost%03d", step)))
			}
			if len(req.ClientEvents) > 0 && rng.Intn(5) == 0 {
				req.ClientEvents = append(req.ClientEvents, req.ClientEvents[0])
			}
			if req.N > 0 && len(req.ClientEvents) > req.N {
				req.ClientEvents = req.ClientEvents[:req.N]
			}
			op = fmt.Sprintf("read %d of %d peek %v client %v", req.N, req.QueueSize, req.Peek, req.ClientEvents)
			if err := p.Read(req); err != nil {
				t.Fatal(err)
			}
		case k == 11 || k == 12:
			d := time.Duration(1+rng.Intn(120)) * time.Second
			op = fmt.Sprintf("advance %v", d)
			sched.Advance(d)
		case k == 13:
			d := time.Duration(5+rng.Intn(180)) * time.Minute
			op = fmt.Sprintf("advance %v", d)
			sched.Advance(d)
		case k == 14:
			if !p.NetworkUp() {
				// A resume during an outage would leave its re-queued
				// losses in the outgoing queue in the order a set handed
				// them out; with the link up they drain at once.
				op = "resume skipped"
				break
			}
			st := p.Export().Topics[0].State
			have, read := msg.IDSet{}, msg.IDSet{}
			for _, id := range st.Forwarded {
				if rng.Intn(3) != 0 {
					have.Add(id)
				}
			}
			if len(st.History) > 0 && rng.Intn(2) == 0 {
				read.Add(st.History[rng.Intn(len(st.History))])
			}
			op = fmt.Sprintf("resume have %v read %v", sorted(have), sorted(read))
			if err := p.Resume("t", have, read); err != nil {
				t.Fatal(err)
			}
		case k == 15:
			op = "export/import"
			blob, err := json.Marshal(p.Export())
			if err != nil {
				t.Fatal(err)
			}
			p.Shutdown()
			var snap ProxySnapshot
			if err := json.Unmarshal(blob, &snap); err != nil {
				t.Fatal(err)
			}
			p = New(sched, dev)
			p.SetTracer(log)
			p.SetNetwork(false)
			if err := p.Import(&snap); err != nil {
				t.Fatal(err)
			}
			p.SetNetwork(up)
		case k == 16:
			op = "rejected transmission"
			dev.fail = true
			p.SetNetwork(true)
			dev.fail = false
			up = p.NetworkUp()
		default:
			dev.failAfter = 1 + rng.Intn(3)
			op = fmt.Sprintf("link dies after %d", dev.failAfter)
			p.SetNetwork(true)
			dev.fail, dev.failAfter = false, 0
			up = p.NetworkUp()
		}
		st := p.Export().Topics[0].State
		ranks := make([]float64, len(st.Notifications))
		for i, n := range st.Notifications {
			ranks[i] = n.Rank
		}
		slices.Sort(log.lines)
		fmt.Fprintf(h, "%d %s\n stats %+v\n queues %v %v %v delayed %v expiry %v forwarded %v history %v ranks %v\n"+
			" view %d limit %d threshold %v delay %v tokens %v day %d/%d\n trace %q\n sent %v\n",
			step, op, p.Stats(), st.Outgoing, st.Prefetch, st.Holding, st.Delayed,
			st.ExpiryArmed, st.Forwarded, st.History, ranks,
			st.QueueSize, st.PrefetchLimit, st.ExpThreshold, st.Delay, st.RateTokens, st.OnlineDay, st.OnlineSent,
			log.lines, dev.ids()[sent:])
		log.lines = log.lines[:0]
		sent = len(dev.received)
	}
	return h.Sum(nil)
}

// TestTopicTableDigests runs seeded programs under each of the five
// presets and compares their transcripts with digests recorded from the
// implementation that kept each of Figure 7's sets in its own map.
func TestTopicTableDigests(t *testing.T) {
	for _, c := range []struct {
		cfg  TopicConfig
		want string
	}{
		{OnlineConfig("t"), "ada201335f254645"},
		{OnDemandConfig("t", 3), "2332dde8060c3fed"},
		{BufferConfig("t", 3, 6), "c92521f5a909845e"},
		{RateConfig("t", 3), "8c46367690c786ec"},
		{UnifiedConfig("t", 3), "cc9665542815c634"},
	} {
		cfg := tablePreset(c.cfg)
		all := sha256.New()
		for seed := range int64(4) {
			all.Write(tableProgram(t, cfg, seed))
		}
		if got := hex.EncodeToString(all.Sum(nil)[:8]); got != c.want {
			t.Errorf("%v (auto threshold %v): digest %s, want %s", cfg.Policy, cfg.AutoExpirationThreshold, got, c.want)
		}
	}
}

// TestReadAllocs: on a warmed on-demand topic, a READ of 8 whose client
// events are 6 notifications the proxy remembers and 2 it never saw
// allocates nothing: the client events are marked on their entries, and
// the best picks and their candidates live in reused scratch.
func TestReadAllocs(t *testing.T) {
	p := New(newTestClock(t0), discard{})
	if err := p.AddTopic(OnDemandConfig("t", 8)); err != nil {
		t.Fatal(err)
	}
	notes := make([]msg.Notification, 4000)
	for i := range notes {
		notes[i] = msg.Notification{ID: msg.ID(fmt.Sprintf("a%05d", i)), Topic: "t", Rank: float64(i % 97), Published: t0, Expires: t0.Add(time.Hour)}
		p.Notify(&notes[i])
	}
	req := msg.ReadRequest{Topic: "t", N: 8, QueueSize: 8}
	for i := range 6 {
		req.ClientEvents = append(req.ClientEvents, notes[i*7].ID)
	}
	req.ClientEvents = append(req.ClientEvents, "never-seen-1", "never-seen-2")
	read := func() {
		if err := p.Read(req); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the scratch
	if a := testing.AllocsPerRun(200, read); a != 0 {
		t.Errorf("Read: %v allocs, want 0", a)
	}
	if got := p.Stats().Forwards; got < 200 {
		t.Fatalf("%d forwards: the reads promoted nothing", got)
	}
}
