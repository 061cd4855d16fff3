package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// buildBusyProxy drives a proxy into a state that exercises every durable
// field: staged queues, a delay stage, armed expiry timers, forwarded
// bookkeeping, tuner statistics fed by reads, and trace contexts.
func buildBusyProxy(t *testing.T, sched *simtime.Virtual, dev *fakeDevice) *Proxy {
	t.Helper()
	p := New(sched, dev)
	bcfg := BufferConfig("buf", 3, 2)
	bcfg.AutoPrefetchLimit = true
	bcfg.AutoExpirationThreshold = true
	if err := p.AddTopic(bcfg); err != nil {
		t.Fatal(err)
	}
	dcfg := OnDemandConfig("dem", 4)
	dcfg.Delay = 30 * time.Second
	if err := p.AddTopic(dcfg); err != nil {
		t.Fatal(err)
	}

	note := func(topic string, id msg.ID, rank float64, life time.Duration) *msg.Notification {
		n := &msg.Notification{ID: id, Topic: topic, Rank: rank, Published: sched.Now()}
		if life > 0 {
			n.Expires = sched.Now().Add(life)
		}
		return n
	}

	// Buffer topic: two forwards fill the client queue, the rest stage in
	// prefetch; one carries a trace context and one an expiry timer.
	p.Notify(note("buf", "b1", 5, 0))
	p.Notify(note("buf", "b2", 4, time.Hour))
	traced := note("buf", "b3", 3, 0)
	traced.Trace = &msg.TraceContext{TraceID: "trace-b3"}
	p.Notify(traced)
	p.Notify(note("buf", "b4", 2, 2*time.Hour))
	// A read feeds the tuner windows and interval estimators.
	sched.Advance(10 * time.Second)
	if err := p.Read(msg.ReadRequest{Topic: "buf", N: 2, QueueSize: 2}); err != nil {
		t.Fatal(err)
	}
	sched.Advance(10 * time.Second)
	if err := p.Read(msg.ReadRequest{Topic: "buf", N: 1, QueueSize: 1}); err != nil {
		t.Fatal(err)
	}

	// On-demand topic with a delay stage: arrivals park in delayed.
	p.Notify(note("dem", "d1", 9, 0))
	p.Notify(note("dem", "d2", 8, time.Hour))
	return p
}

func TestSnapshotRoundTrip(t *testing.T) {
	sched := newTestClock(t0)
	dev := &fakeDevice{}
	p := buildBusyProxy(t, sched, dev)

	snap := p.Export()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded ProxySnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	sched2 := newTestClock(sched.Now())
	dev2 := &fakeDevice{}
	p2 := New(sched2, dev2)
	p2.SetNetwork(false)
	if err := p2.Import(&decoded); err != nil {
		t.Fatalf("Import: %v", err)
	}

	// The re-export of the imported proxy must match the original dump
	// byte for byte: Export is deterministic and Import is lossless.
	blob2, err := json.Marshal(p2.Export())
	if err != nil {
		t.Fatalf("marshal 2: %v", err)
	}
	if string(blob) != string(blob2) {
		t.Errorf("round-trip drift:\n before: %s\n  after: %s", blob, blob2)
	}
	if !reflect.DeepEqual(p.Stats(), p2.Stats()) {
		t.Errorf("stats drift: %+v vs %+v", p.Stats(), p2.Stats())
	}

	// Per-topic snapshots agree.
	for _, topic := range p.Topics() {
		a, _ := p.Snapshot(topic)
		b, ok := p2.Snapshot(topic)
		if !ok {
			t.Fatalf("topic %q missing after import", topic)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("topic %q drift:\n %+v\n %+v", topic, a, b)
		}
	}

	// The trace context survived through the sidecar.
	ts2 := p2.topics["buf"]
	h, ok := ts2.ids["b3"]
	n := ts2.slots[h].N
	if !ok || n.Trace == nil || n.Trace.TraceID != "trace-b3" {
		t.Errorf("trace context lost: %+v", n)
	}
}

func TestSnapshotRearmsTimers(t *testing.T) {
	sched := newTestClock(t0)
	p := buildBusyProxy(t, sched, &fakeDevice{})
	snap := p.Export()

	// Import on a scheduler 10s further along: the 30s delay stage has 20s
	// left, the 1h expiry timers remain armed.
	sched2 := newTestClock(sched.Now().Add(10 * time.Second))
	p2 := New(sched2, &fakeDevice{})
	p2.SetNetwork(false)
	if err := p2.Import(snap); err != nil {
		t.Fatalf("Import: %v", err)
	}
	before, _ := p2.Snapshot("dem")
	if before.Delayed != 2 {
		t.Fatalf("Delayed = %d, want 2", before.Delayed)
	}
	sched2.Advance(21 * time.Second)
	after, _ := p2.Snapshot("dem")
	if after.Delayed != 0 {
		t.Errorf("Delayed = %d after the delay elapsed, want 0", after.Delayed)
	}
	if after.Prefetch != before.Prefetch+2 {
		t.Errorf("Prefetch = %d, want %d", after.Prefetch, before.Prefetch+2)
	}

	// A deadline that passed while spooled fires immediately on import.
	sched3 := newTestClock(sched.Now().Add(2 * time.Minute))
	p3 := New(sched3, &fakeDevice{})
	p3.SetNetwork(false)
	if err := p3.Import(snap); err != nil {
		t.Fatalf("Import: %v", err)
	}
	sched3.Advance(time.Millisecond)
	late, _ := p3.Snapshot("dem")
	if late.Delayed != 0 {
		t.Errorf("Delayed = %d for long-overdue timers, want 0", late.Delayed)
	}
}

func TestImportRejectsNonEmptyProxy(t *testing.T) {
	sched := newTestClock(t0)
	p := New(sched, &fakeDevice{})
	if err := p.AddTopic(OnlineConfig("t")); err != nil {
		t.Fatal(err)
	}
	if err := p.Import(&ProxySnapshot{}); err == nil {
		t.Error("Import into a non-empty proxy succeeded")
	}
}

// TestImportRejectsDanglingQueueID: every ID a snapshot lists beside the
// history must be in it, and no ID may wait in two stages. A forwarded ID
// outside the history would make the next Resume report a loss of a
// notification the proxy never held.
func TestImportRejectsDanglingQueueID(t *testing.T) {
	known := &msg.Notification{ID: "a", Topic: "t", Rank: 5, Published: t0}
	for _, c := range []struct {
		name string
		st   msg.TopicState
		want string
	}{
		{"queue", msg.TopicState{Outgoing: []msg.ID{"ghost"}}, "outgoing queue ID ghost not in history"},
		{"forwarded", msg.TopicState{Forwarded: []msg.ID{"ghost"}}, "forwarded ID ghost not in history"},
		{"delayed", msg.TopicState{Delayed: []msg.DelayedEntry{{ID: "ghost", FireAt: t0}}}, "delayed ID ghost not in history"},
		{"two queues", msg.TopicState{Prefetch: []msg.ID{"a"}, Holding: []msg.ID{"a"}}, "holding queue ID a already prefetch"},
		{"history twice", msg.TopicState{History: []msg.ID{"a", "a"}}, "history ID a listed twice"},
	} {
		c.st.Topic = "t"
		if len(c.st.History) == 0 {
			c.st.History = []msg.ID{"a"}
		}
		c.st.Notifications = []*msg.Notification{known}
		snap := &ProxySnapshot{Topics: []TopicDurable{{Config: OnDemandConfig("t", 4), State: c.st}}}
		p := New(newTestClock(t0), &fakeDevice{})
		if err := p.Import(snap); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Import = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestShutdownCancelsTimers(t *testing.T) {
	sched := newTestClock(t0)
	p := buildBusyProxy(t, sched, &fakeDevice{})
	if sched.Pending() == 0 {
		t.Fatal("expected armed timers")
	}
	p.Shutdown()
	if got := sched.Pending(); got != 0 {
		t.Errorf("Pending = %d after Shutdown, want 0", got)
	}
	if got := p.Topics(); len(got) != 0 {
		t.Errorf("Topics = %v after Shutdown", got)
	}
}
