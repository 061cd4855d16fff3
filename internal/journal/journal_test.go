package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "proxy.journal")
}

func note(id msg.ID, rank float64, at time.Time, life time.Duration) *msg.Notification {
	n := &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: at}
	if life > 0 {
		n.Expires = at.Add(life)
	}
	return n
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	up := true
	cfg := core.BufferConfig("t", 8, 32)
	entries := []Entry{
		{At: t0, Kind: KindAddTopic, TopicConfig: &cfg},
		{At: t0.Add(time.Minute), Kind: KindNotify, Notification: note("a", 3, t0, time.Hour)},
		{At: t0.Add(2 * time.Minute), Kind: KindRankUpdate, Update: &msg.RankUpdate{Topic: "t", ID: "a", NewRank: 1}},
		{At: t0.Add(3 * time.Minute), Kind: KindRead, Read: &msg.ReadRequest{Topic: "t", N: 8}},
		{At: t0.Add(4 * time.Minute), Kind: KindNetwork, NetworkUp: &up},
		{At: t0.Add(5 * time.Minute), Kind: KindRemoveTopic, TopicName: "t"},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatalf("append %s: %v", e.Kind, err)
		}
	}
	if j.Appended() != len(entries) {
		t.Errorf("Appended = %d", j.Appended())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}

	var got []Entry
	if err := ReadAll(path, func(e Entry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if e.Kind != entries[i].Kind || !e.At.Equal(entries[i].At) {
			t.Errorf("entry %d = %s@%v, want %s@%v", i, e.Kind, e.At, entries[i].Kind, entries[i].At)
		}
	}
}

func TestAppendValidates(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Entry{Kind: KindNotify}); err == nil {
		t.Error("notify without payload accepted")
	}
	if err := j.Append(Entry{Kind: Kind("bogus")}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestClosedJournalRejectsOperations(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := core.OnlineConfig("t")
	if err := j.Append(Entry{At: t0, Kind: KindAddTopic, TopicConfig: &cfg}); err == nil {
		t.Error("append after close succeeded")
	}
	if err := j.Sync(); err == nil {
		t.Error("sync after close succeeded")
	}
}

func TestRecorderSurfacesJournalErrors(t *testing.T) {
	// A write-ahead failure must block the operation: the proxy state
	// never runs ahead of the journal.
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewVirtual(t0)
	proxy := core.New(clock, &sink{})
	rec := NewRecorder(clock, proxy, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddTopic(core.OnlineConfig("t")); err == nil {
		t.Error("AddTopic applied despite a dead journal")
	}
	if len(proxy.Topics()) != 0 {
		t.Error("proxy state ran ahead of the journal")
	}
	if err := rec.Notify(note("a", 1, t0, 0)); err == nil {
		t.Error("Notify applied despite a dead journal")
	}
	if err := rec.Read(msg.ReadRequest{Topic: "t", N: 1}); err == nil {
		t.Error("Read applied despite a dead journal")
	}
	if err := rec.SetNetwork(true); err == nil {
		t.Error("SetNetwork applied despite a dead journal")
	}
	if err := rec.RemoveTopic("t"); err == nil {
		t.Error("RemoveTopic applied despite a dead journal")
	}
	if err := rec.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "a", NewRank: 1}); err == nil {
		t.Error("ApplyRankUpdate applied despite a dead journal")
	}
}

func TestReadAllMissingFile(t *testing.T) {
	calls := 0
	if err := ReadAll(filepath.Join(t.TempDir(), "absent"), func(Entry) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Error("callback invoked for missing file")
	}
}

func TestReadAllTornTailTolerated(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.OnlineConfig("t")
	if err := j.Append(Entry{At: t0, Kind: KindAddTopic, TopicConfig: &cfg}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, non-JSON tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"at":"2026-01-01T00:01:00Z","kind":"noti`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	count := 0
	if err := ReadAll(path, func(Entry) error {
		count++
		return nil
	}); err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if count != 1 {
		t.Errorf("read %d entries, want 1", count)
	}
}

func TestReadAllMidFileCorruptionFails(t *testing.T) {
	path := tmpJournal(t)
	content := strings.Join([]string{
		`{"at":"2026-01-01T00:00:00Z","kind":"network","networkUp":true}`,
		`garbage garbage`,
		`{"at":"2026-01-01T00:02:00Z","kind":"network","networkUp":false}`,
	}, "\n")
	if err := os.WriteFile(path, []byte(content+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadAll(path, func(Entry) error { return nil }); err == nil {
		t.Error("mid-file corruption not reported")
	}
}

// runWorkload drives a recorder through a fixed mixed sequence.
func runWorkload(t *testing.T, clock *simtime.Virtual, rec *Recorder) {
	t.Helper()
	if err := rec.AddTopic(core.BufferConfig("t", 4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetNetwork(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		life := time.Duration(0)
		if i%3 == 0 {
			life = 90 * time.Minute
		}
		if err := rec.Notify(note(msg.ID(fmt.Sprintf("n%02d", i)), float64(i%5), clock.Now(), life)); err != nil {
			t.Fatal(err)
		}
		clock.Advance(10 * time.Minute)
		switch i {
		case 4:
			if err := rec.SetNetwork(false); err != nil {
				t.Fatal(err)
			}
		case 6:
			if err := rec.SetNetwork(true); err != nil {
				t.Fatal(err)
			}
		case 8:
			if err := rec.Read(msg.ReadRequest{Topic: "t", N: 4, QueueSize: 8}); err != nil {
				t.Fatal(err)
			}
		case 10:
			if err := rec.ApplyRankUpdate(msg.RankUpdate{Topic: "t", ID: "n07", NewRank: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

type sink struct {
	got []*msg.Notification
}

func (s *sink) ForwardBatch(batch []*msg.Notification) error {
	s.got = append(s.got, batch...)
	return nil
}

func TestRecoverRebuildsState(t *testing.T) {
	path := tmpJournal(t)

	// Original life: a journaled proxy handles a workload, then "crashes".
	clock := simtime.NewVirtual(t0)
	dev := &sink{}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	proxy := core.New(clock, dev)
	rec := NewRecorder(clock, proxy, j)
	runWorkload(t, clock, rec)
	want, ok := proxy.Snapshot("t")
	if !ok {
		t.Fatal("no snapshot")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: the restarted proxy's clock reads the crash instant; the
	// replay reruns the recorded instants on its own clock.
	clock2 := simtime.NewVirtual(clock.Now())
	dev2 := &sink{}
	rec2, err := Recover(clock2, dev2, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if len(dev2.got) != 0 {
		t.Fatalf("recovery re-forwarded %d messages to the device", len(dev2.got))
	}
	got, ok := rec2.Proxy().Snapshot("t")
	if !ok {
		t.Fatal("recovered proxy lost the topic")
	}
	// The recovered network state is down by design; every snapshot
	// field must match the pre-crash one.
	if got != want {
		t.Errorf("recovered state diverged:\n  want %+v\n  got  %+v", want, got)
	}
	if got, want := rec2.Proxy().Stats(), proxy.Stats(); got != want {
		t.Errorf("recovered stats diverged:\n  want %+v\n  got  %+v", want, got)
	}

	// Post-recovery service: the device reconnects; its read corrects
	// the queue view and fresh traffic flows again.
	rec2.Proxy().SetNetwork(true)
	if err := rec2.Proxy().Read(msg.ReadRequest{Topic: "t", N: 4}); err != nil {
		t.Fatal(err)
	}
	rec2.Proxy().Notify(note("fresh", 5, clock2.Now(), 0))
	found := false
	for _, n := range dev2.got {
		if n.ID == "fresh" {
			found = true
		}
	}
	if !found {
		t.Error("recovered proxy does not serve fresh traffic")
	}
}

func TestRecoverExpiredTimersFire(t *testing.T) {
	path := tmpJournal(t)
	clock := simtime.NewVirtual(t0)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	proxy := core.New(clock, &sink{})
	rec := NewRecorder(clock, proxy, j)
	if err := rec.AddTopic(core.OnDemandConfig("t", 4)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Notify(note("short", 5, clock.Now(), time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover "two hours later": the notification expired while the proxy
	// was down, so its replayed expiry timer fires during recovery, on
	// the replay's clock, and the live clock has nothing left to fire.
	clock2 := simtime.NewVirtual(t0.Add(2 * time.Hour))
	rec2, err := Recover(clock2, &sink{}, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	snap, _ := rec2.Proxy().Snapshot("t")
	if snap.Prefetch != 0 {
		t.Errorf("expired notification still queued after recovery: %+v", snap)
	}
	if got := rec2.Proxy().Stats().Expirations; got != 1 {
		t.Errorf("expirations after recovery = %d, want 1", got)
	}
	if n := clock2.Pending(); n != 0 {
		t.Errorf("%d timers armed on the live clock for an expired notification", n)
	}
}

// TestRecoverFutureDeadlineFiresLive: a deadline that falls after the
// restart is not run during recovery; it re-arms on the live scheduler
// and fires at its own recorded instant there.
func TestRecoverFutureDeadlineFiresLive(t *testing.T) {
	path := tmpJournal(t)
	clock := simtime.NewVirtual(t0)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(clock, core.New(clock, &sink{}), j)
	if err := rec.AddTopic(core.OnDemandConfig("t", 4)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Notify(note("long", 5, clock.Now(), 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart one hour in: the deadline at t0+2h is still ahead.
	clock2 := simtime.NewVirtual(t0.Add(time.Hour))
	rec2, err := Recover(clock2, &sink{}, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	queued := func() int {
		snap, _ := rec2.Proxy().Snapshot("t")
		return snap.Prefetch
	}
	if queued() != 1 || rec2.Proxy().Stats().Expirations != 0 {
		t.Fatalf("recovery ran a deadline that is still ahead: %d queued, stats %+v", queued(), rec2.Proxy().Stats())
	}
	at, ok := clock2.NextDeadline()
	if want := t0.Add(2 * time.Hour); !ok || !at.Equal(want) {
		t.Fatalf("live clock's next deadline = %v (armed %v), want %v", at, ok, want)
	}
	clock2.RunUntil(at.Add(-time.Nanosecond))
	if queued() != 1 {
		t.Fatal("the deadline fired before its instant")
	}
	clock2.RunUntil(at)
	if queued() != 0 || rec2.Proxy().Stats().Expirations != 1 {
		t.Errorf("the deadline did not fire at its instant: %d queued, stats %+v", queued(), rec2.Proxy().Stats())
	}
}

func TestCompactShrinksAndPreservesState(t *testing.T) {
	path := tmpJournal(t)
	clock := simtime.NewVirtual(t0)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	proxy := core.New(clock, &sink{})
	rec := NewRecorder(clock, proxy, j)
	runWorkload(t, clock, rec)
	want, _ := proxy.Snapshot("t")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	before := countEntries(t, path)
	compactAt := clock.Now().Add(3 * time.Hour) // the 90m-lifetime notes are expired
	kept, err := Compact(path, compactAt)
	if err != nil {
		t.Fatal(err)
	}
	if kept >= before {
		t.Errorf("compact kept %d of %d entries", kept, before)
	}

	// Recovery from the compacted journal preserves the live message
	// set and tuning state: every live message is either still queued or
	// recorded as forwarded, and the split is reconciled by the next
	// read (§3.5). Expired messages are gone by design.
	clock2 := simtime.NewVirtual(clock.Now())
	rec2, err := Recover(clock2, &sink{}, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	got, ok := rec2.Proxy().Snapshot("t")
	if !ok {
		t.Fatal("compacted journal lost the topic")
	}
	const liveNotes = 8 // 12 workload arrivals minus 4 with 90m lifetimes
	if total := got.Prefetch + got.Outgoing + got.Holding + got.Forwarded; total != liveNotes {
		t.Errorf("live message set = %d, want %d (%+v)", total, liveNotes, got)
	}
	if got.History != liveNotes {
		t.Errorf("history = %d, want %d", got.History, liveNotes)
	}
	if got.PrefetchLimit != want.PrefetchLimit {
		t.Errorf("prefetch limit diverged: %d vs %d", got.PrefetchLimit, want.PrefetchLimit)
	}
	// The queue view may differ (expired messages' transfers inflated
	// the original); it reconciles at the next read, so no assertion.
}

func TestCompactDropsRemovedTopics(t *testing.T) {
	path := tmpJournal(t)
	clock := simtime.NewVirtual(t0)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	proxy := core.New(clock, &sink{})
	rec := NewRecorder(clock, proxy, j)
	if err := rec.AddTopic(core.OnlineConfig("gone")); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddTopic(core.OnlineConfig("kept")); err != nil {
		t.Fatal(err)
	}
	if err := rec.RemoveTopic("gone"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(path, clock.Now()); err != nil {
		t.Fatal(err)
	}
	clock2 := simtime.NewVirtual(t0)
	rec2, err := Recover(clock2, &sink{}, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	topics := rec2.Proxy().Topics()
	if len(topics) != 1 || topics[0] != "kept" {
		t.Errorf("topics after compaction = %v", topics)
	}
}

func countEntries(t *testing.T, path string) int {
	t.Helper()
	n := 0
	if err := ReadAll(path, func(Entry) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReadAllTornTailEveryOffset truncates a journal at every byte
// offset inside its final entry and asserts each truncation replays the
// preceding entries cleanly, reporting the dropped tail through warnf.
// This is the crash-mid-append model: a tear can land anywhere in the
// last line, including on its trailing newline.
func TestReadAllTornTailEveryOffset(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.OnlineConfig("t")
	full := []Entry{
		{At: t0, Kind: KindAddTopic, TopicConfig: &cfg},
		{At: t0.Add(time.Minute), Kind: KindNotify, Notification: note("a", 3, t0, time.Hour)},
		{At: t0.Add(2 * time.Minute), Kind: KindNotify, Notification: note("b", 2, t0, time.Hour)},
	}
	for _, e := range full {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := strings.LastIndex(strings.TrimRight(string(raw), "\n"), "\n") + 1

	for cut := lastStart; cut < len(raw); cut++ {
		trunc := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var warned []string
		warnf := func(format string, args ...any) {
			warned = append(warned, fmt.Sprintf(format, args...))
		}
		count := 0
		if err := ReadAllOpts(trunc, warnf, func(Entry) error {
			count++
			return nil
		}); err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		// Cutting exactly at the closing brace leaves a complete final
		// line (only the newline is missing), which must still replay.
		// Cutting at the line start leaves a clean, shorter journal —
		// nothing torn, nothing to warn about.
		wantCount := len(full) - 1
		wantWarn := cut > lastStart
		if cut == len(raw)-1 {
			wantCount = len(full)
			wantWarn = false
		}
		if count != wantCount {
			t.Fatalf("cut at byte %d: replayed %d entries, want %d", cut, count, wantCount)
		}
		if wantWarn && len(warned) == 0 {
			t.Fatalf("cut at byte %d: torn tail dropped without a warning", cut)
		}
		if !wantWarn && len(warned) != 0 {
			t.Fatalf("cut at byte %d: spurious warning %q", cut, warned)
		}
	}
}

// TestReadAllOversizedEntry regression-tests the scanner-era failure
// mode: one entry larger than any fixed line buffer must replay, and so
// must everything after it, instead of the scan silently ending there.
func TestReadAllOversizedEntry(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	big := note("big", 1, t0, time.Hour)
	big.Payload = make([]byte, 2<<20) // 2 MiB: far beyond the old 1 MiB scanner cap once JSON-encoded
	entries := []Entry{
		{At: t0, Kind: KindNotify, Notification: big},
		{At: t0.Add(time.Minute), Kind: KindNotify, Notification: note("after", 2, t0, time.Hour)},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []msg.ID
	if err := ReadAll(path, func(e Entry) error {
		got = append(got, e.Notification.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "big" || got[1] != "after" {
		t.Fatalf("replayed %v, want [big after]", got)
	}
}
