package core

// Tests for Figure 7's expiration_timeout as the proxy implements it: one
// expiry index and one armed timer per topic. The preset digests were
// recorded from the earlier implementation, which armed one scheduler
// entry per expirable notification, so they pin that the index changes no
// observable behaviour when deadlines are distinct.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/trace"
)

// expiryPreset widens one of the five policy presets so a program reaches
// every stage an expiry can hit: a rank threshold to drop below and boost
// across, a short history that evicts, the delay stage, a quiet window on
// the on-line path (interrupts reach it from the on-demand presets) and a
// daily cap on the on-line preset.
func expiryPreset(cfg TopicConfig) TopicConfig {
	cfg.RankThreshold = 2
	cfg.HistoryLimit = 40
	cfg.Delay = 45 * time.Second
	cfg.InterruptRank = 9
	cfg.Quiet = []QuietWindow{{Start: time.Hour, End: 2 * time.Hour}}
	if cfg.Policy == Online {
		cfg.DailyOnlineCap = 20
	}
	if cfg.Policy == Buffer && !cfg.AutoExpirationThreshold {
		cfg.ExpirationThreshold = 10 * time.Minute
	}
	return cfg
}

// expiryProgram drives one proxy through a seeded program of arrivals
// (never-expiring and expiring, with random lifetimes so earlier deadlines
// arrive behind later ones), rank revisions across the threshold, link
// flaps, reads, clock advances and Export→Import round trips, and hashes
// the stats, the topic state and the forwarded IDs after every step. Every
// timer other than an expiry is armed on a whole second, and every expiry
// deadline is distinct and carries a millisecond remainder, so the firing
// order is the same whichever way the expiries are scheduled.
func expiryProgram(t *testing.T, cfg TopicConfig, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	p := New(sched, dev)
	if err := p.AddTopic(cfg); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	deadlines := map[time.Time]bool{}
	var ids []msg.ID
	up, sent := true, 0
	for step := range 300 {
		now := sched.Now()
		var op string
		switch k := rng.Intn(16); {
		case k < 5:
			id := msg.ID(fmt.Sprintf("n%03d", step))
			n := &msg.Notification{ID: id, Topic: "t", Rank: rng.Float64() * 10, Published: now}
			for expirable := rng.Intn(4) != 0; expirable && n.NeverExpires(); {
				// Lifetimes up to a day outlive the short history, so
				// eviction forgets notifications that are still armed.
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
			rank := rng.Float64() * 2 // a drop below the threshold
			if k == 7 {
				rank = 2 + rng.Float64()*8 // a boost across it
			}
			op = fmt.Sprintf("rank %s %.3f", id, rank)
			p.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: id, NewRank: rank})
		case k == 8:
			up = !up
			op = fmt.Sprintf("network %v", up)
			p.SetNetwork(up)
		case k == 9 || k == 10:
			s, _ := p.Snapshot("t")
			req := msg.ReadRequest{Topic: "t", N: rng.Intn(4), QueueSize: s.QueueSizeView}
			op = fmt.Sprintf("read %d of %d", req.N, req.QueueSize)
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
			p.SetNetwork(false)
			if err := p.Import(&snap); err != nil {
				t.Fatal(err)
			}
			p.SetNetwork(up)
		default:
			op = "rejected transmission"
			dev.fail = true
			p.SetNetwork(true)
			dev.fail = false
			up = p.NetworkUp()
		}
		st := p.Export().Topics[0].State
		for _, q := range [][]msg.ID{st.Outgoing, st.Prefetch, st.Holding} {
			slices.Sort(q)
		}
		fmt.Fprintf(h, "%d %s\n stats %+v\n queues %v %v %v delayed %v expiry %v forwarded %v history %v\n sent %v\n",
			step, op, p.Stats(), st.Outgoing, st.Prefetch, st.Holding, st.Delayed,
			st.ExpiryArmed, st.Forwarded, st.History, dev.ids()[sent:])
		sent = len(dev.received)
	}
	return h.Sum(nil)
}

// TestExpiryPresetDigests runs seeded programs under each of the five
// presets and compares their transcripts with digests recorded from the
// one-timer-per-notification implementation.
func TestExpiryPresetDigests(t *testing.T) {
	for _, c := range []struct {
		cfg  TopicConfig
		want string
	}{
		{OnlineConfig("t"), "a9c44dacfbe9d8c4"},
		{OnDemandConfig("t", 3), "0eb416b05bb3e6a8"},
		{BufferConfig("t", 3, 6), "d1d0641b5d9d3162"},
		{RateConfig("t", 3), "f85cd2f16a00e2f5"},
		{UnifiedConfig("t", 3), "21f44c443d285e0a"},
	} {
		cfg := expiryPreset(c.cfg)
		all := sha256.New()
		for seed := range int64(6) {
			all.Write(expiryProgram(t, cfg, seed))
		}
		if got := hex.EncodeToString(all.Sum(nil)[:8]); got != c.want {
			t.Errorf("%v (auto threshold %v): digest %s, want %s", cfg.Policy, cfg.AutoExpirationThreshold, got, c.want)
		}
	}
}

// TestSameInstantExpiryOrder pins the order of expiries due at one
// instant: (Expires, ID), whatever order they were armed in. An earlier
// deadline arriving behind later ones still fires on time, and one fire
// drains every due expiry before any other callback at that instant runs.
func TestSameInstantExpiryOrder(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 4))
	buf := trace.NewBuffer(0)
	f.proxy.SetTracer(buf)
	for _, id := range []msg.ID{"c", "b", "d", "a"} {
		f.proxy.Notify(f.note(id, 5, time.Hour))
	}
	f.proxy.Notify(f.note("early", 5, time.Minute))
	f.sched.Advance(2 * time.Minute)
	if got := f.proxy.Stats().Expirations; got != 1 {
		t.Errorf("Expirations = %d two minutes in, want 1", got)
	}
	// Armed after the expiry timer moved to the hour, so it runs after it.
	atDeadline := -1
	f.sched.Schedule(58*time.Minute, func() { atDeadline = f.proxy.Stats().Expirations })
	f.sched.Advance(2 * time.Hour)
	if atDeadline != 5 {
		t.Errorf("another callback at the shared deadline saw %d expirations, want all 5", atDeadline)
	}
	var got []msg.ID
	for _, e := range buf.Events() {
		if e.Kind == trace.KindExpire {
			got = append(got, e.ID)
		}
	}
	if want := []msg.ID{"early", "a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Errorf("expiry order %v, want %v", got, want)
	}
}

// TestStaleExpiryFireIsNoop: a timer the topic has since replaced, or the
// timer of a topic that is gone, never fires, so it changes nothing. Both
// schedulers honour a Cancel issued from the proxy's own entry points
// (simtime's TestCancelFromBatchOrRunWins pins that), so the topic keeps
// no count of stale fires to absorb.
func TestStaleExpiryFireIsNoop(t *testing.T) {
	sched := newTestClock(t0)
	fired := 0
	p := New(sched, &fakeDevice{})
	if err := p.AddTopic(OnDemandConfig("t", 4)); err != nil {
		t.Fatal(err)
	}
	ts := p.topics["t"]
	fire := ts.expiryFire
	ts.expiryFire = func() { fired++; fire() }
	note := func(id msg.ID, life time.Duration) *msg.Notification {
		return &msg.Notification{ID: id, Topic: "t", Rank: 5, Published: t0, Expires: t0.Add(life)}
	}
	p.Notify(note("late", 10*time.Minute))
	p.Notify(note("soon", 5*time.Minute)) // re-arms; the 10-minute timer is cancelled
	if got := sched.Pending(); got != 1 {
		t.Fatalf("%d timers pending after a re-arm, want 1", got)
	}
	sched.Advance(5 * time.Minute)
	if got := p.Stats().Expirations; got != 1 || fired != 1 {
		t.Fatalf("Expirations = %d after %d fires at the first deadline, want 1 after 1", got, fired)
	}
	sched.Advance(5 * time.Minute)
	if got := p.Stats().Expirations; got != 2 || fired != 2 {
		t.Fatalf("Expirations = %d after %d fires at the second deadline, want 2 after 2", got, fired)
	}

	p.Notify(note("gone", 20*time.Minute))
	if err := p.RemoveTopic("t"); err != nil {
		t.Fatal(err)
	}
	if got := sched.Pending(); got != 0 {
		t.Errorf("%d timers pending after the topic was removed, want 0", got)
	}
	sched.Advance(time.Hour)
	if got := p.Stats().Expirations; got != 2 || fired != 2 {
		t.Errorf("Expirations = %d after %d fires once the topic was removed, want 2 after 2", got, fired)
	}
}

// TestExpiryArmsOneTimerPerTopic: a thousand expirable arrivals with
// random lifetimes leave at most one scheduler entry armed for expiry.
func TestExpiryArmsOneTimerPerTopic(t *testing.T) {
	f := newFixture(t, OnDemandConfig("t", 4))
	rng := rand.New(rand.NewSource(1))
	for i := range 1000 {
		life := time.Duration(1+rng.Intn(100000)) * time.Millisecond
		f.proxy.Notify(f.note(msg.ID(fmt.Sprintf("e%04d", i)), 5, life))
	}
	if got := f.sched.Pending(); got > 1 {
		t.Fatalf("%d timers pending after 1000 expirable arrivals, want at most 1", got)
	}
	f.sched.Advance(101 * time.Second)
	if got := f.proxy.Stats().Expirations; got != 1000 {
		t.Errorf("Expirations = %d, want 1000", got)
	}
	if got := f.sched.Pending(); got != 0 {
		t.Errorf("%d timers pending with nothing left to expire", got)
	}
}

// TestNotifyExpirableAllocs pins the cost of one expirable on-demand
// arrival on a warmed proxy whose history is full, so every arrival also
// evicts (and forgets) the oldest notification. It allocates nothing:
// arming one timer and a closure per notification cost two allocations
// here.
func TestNotifyExpirableAllocs(t *testing.T) {
	const history = 64
	cfg := OnDemandConfig("t", 4)
	cfg.HistoryLimit = history
	f := newFixture(t, cfg)
	notes := make([]*msg.Notification, history+1001) // AllocsPerRun adds a warm-up run
	for i := range notes {
		notes[i] = f.note(msg.ID(fmt.Sprintf("w%05d", i)), float64(i%7), time.Hour)
	}
	for _, n := range notes[:history] {
		f.proxy.Notify(n)
	}
	next := history
	if a := testing.AllocsPerRun(1000, func() {
		f.proxy.Notify(notes[next])
		next++
	}); a != 0 {
		t.Errorf("expirable Notify with a full history: %v allocs, want 0", a)
	}
}

// expirableSnapshot exports an on-demand topic holding n expirable
// notifications with distinct deadlines.
func expirableSnapshot(tb testing.TB, n int) *ProxySnapshot {
	tb.Helper()
	sched := newTestClock(t0)
	p := New(sched, &fakeDevice{})
	if err := p.AddTopic(OnDemandConfig("t", 4)); err != nil {
		tb.Fatal(err)
	}
	for i := range n {
		p.Notify(&msg.Notification{
			ID: msg.ID(fmt.Sprintf("x%05d", i)), Topic: "t", Rank: float64(i % 9),
			Published: t0, Expires: t0.Add(time.Hour + time.Duration(i)*time.Millisecond),
		})
	}
	return p.Export()
}

// TestImportExpirableAllocs bounds a rehydrate of 10k expirable
// notifications: one timer per topic, not one per notification (which
// cost about 20,450 allocations).
func TestImportExpirableAllocs(t *testing.T) {
	snap := expirableSnapshot(t, 10000)
	sched := newTestClock(t0)
	if a := testing.AllocsPerRun(3, func() {
		p := New(sched, &fakeDevice{})
		if err := p.Import(snap); err != nil {
			t.Fatal(err)
		}
		p.Shutdown()
	}); a > 1000 {
		t.Errorf("Import of 10k expirable notifications: %v allocs, want <= 1000", a)
	}
}

func BenchmarkImportExpirable10k(b *testing.B) {
	snap := expirableSnapshot(b, 10000)
	sched := newTestClock(t0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(sched, &fakeDevice{})
		if err := p.Import(snap); err != nil {
			b.Fatal(err)
		}
		p.Shutdown()
	}
}

// TestImportFiresPassedDeadlinesOnce checks what Import promises: a
// deadline that passed while the state was spooled fires on the first tick
// after Import, each such expiry is counted exactly once, and the restored
// proxy holds one armed expiry timer per topic.
func TestImportFiresPassedDeadlinesOnce(t *testing.T) {
	sched := newTestClock(t0)
	p := New(sched, &fakeDevice{})
	for _, name := range []string{"a", "b"} {
		if err := p.AddTopic(OnDemandConfig(name, 4)); err != nil {
			t.Fatal(err)
		}
		for i := range 6 {
			n := &msg.Notification{
				ID: msg.ID(fmt.Sprintf("%s%d", name, i)), Topic: name, Rank: 5, Published: t0,
				Expires: t0.Add(time.Duration(10*(i+1)) * time.Minute),
			}
			if i == 5 {
				n.Expires = time.Time{} // never expires
			}
			p.Notify(n)
		}
	}
	blob, err := json.Marshal(p.Export())
	if err != nil {
		t.Fatal(err)
	}
	var snap ProxySnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}

	// Spooled for 35 minutes: three deadlines per topic passed.
	sched2 := newTestClock(t0.Add(35 * time.Minute))
	p2 := New(sched2, &fakeDevice{})
	p2.SetNetwork(false)
	if err := p2.Import(&snap); err != nil {
		t.Fatal(err)
	}
	if got := sched2.Pending(); got != 2 {
		t.Errorf("%d timers armed after Import of two topics, want 2", got)
	}
	sched2.Advance(0)
	if got := p2.Stats().Expirations; got != 6 {
		t.Errorf("Expirations = %d on the first tick after Import, want 6", got)
	}
	for _, name := range []string{"a", "b"} {
		if s, _ := p2.Snapshot(name); s.Prefetch != 3 {
			t.Errorf("topic %s: %d queued after the first tick, want 3", name, s.Prefetch)
		}
	}
	sched2.Advance(time.Hour)
	if got := p2.Stats().Expirations; got != 10 {
		t.Errorf("Expirations = %d once every deadline passed, want 10", got)
	}
	if got := sched2.Pending(); got != 0 {
		t.Errorf("%d timers pending with nothing left to expire", got)
	}
}
