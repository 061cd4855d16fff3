package device

// Unit tests for the peer-cooperation primitives (Peek, ImportPeer,
// MarkRead, Refill) used by the multi-device extension.

import (
	"testing"
	"time"

	"lasthop/internal/msg"
)

func TestPeekReturnsCopiesInRankOrder(t *testing.T) {
	f := newFixture(Config{})
	for i, r := range []float64{2, 5, 1} {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := f.dev.Peek("t", 2)
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "a" {
		t.Fatalf("Peek = %v", got)
	}
	// Copies: mutating the result must not touch the store.
	got[0].Rank = 0
	again := f.dev.Peek("t", 1)
	if again[0].Rank != 5 {
		t.Error("Peek exposed internal storage")
	}
	// Peeking does not consume.
	if f.dev.QueueLen("t") != 3 {
		t.Errorf("QueueLen = %d", f.dev.QueueLen("t"))
	}
	// n <= 0 means everything; unknown topics yield nothing.
	if len(f.dev.Peek("t", 0)) != 3 {
		t.Error("Peek(0) did not return everything")
	}
	if f.dev.Peek("ghost", 4) != nil {
		t.Error("Peek of unknown topic returned data")
	}
}

func TestPeekSkipsExpired(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("short", 5, time.Minute)); err != nil {
		t.Fatal(err)
	}
	f.sched.Advance(time.Hour)
	if got := f.dev.Peek("t", 4); len(got) != 0 {
		t.Errorf("Peek returned expired content: %v", got)
	}
}

func TestImportPeer(t *testing.T) {
	f := newFixture(Config{RankThreshold: 2})
	n := f.note("a", 4, 0)
	if !f.dev.ImportPeer(n) {
		t.Fatal("import of fresh notification failed")
	}
	if f.dev.ImportPeer(n) {
		t.Error("duplicate import succeeded")
	}
	if f.dev.ImportPeer(f.note("low", 1, 0)) {
		t.Error("below-threshold import succeeded")
	}
	stale := f.note("stale", 4, time.Minute)
	f.sched.Advance(time.Hour)
	if f.dev.ImportPeer(stale) {
		t.Error("expired import succeeded")
	}
	// Already-read content is not re-imported.
	if _, err := f.dev.Read("t", 4); err != nil {
		t.Fatal(err)
	}
	if f.dev.ImportPeer(f.note("a", 4, 0)) {
		t.Error("import resurrected consumed content")
	}
	if f.dev.Stats().PeerImports != 1 {
		t.Errorf("PeerImports = %d", f.dev.Stats().PeerImports)
	}
	// Imports bypass the link: no transfer accounting.
	if f.lnk.Stats().MessagesDown != 0 {
		t.Error("import crossed the last hop")
	}
}

func TestMarkReadReleasesCopies(t *testing.T) {
	f := newFixture(Config{})
	for i := 0; i < 3; i++ {
		if err := f.dev.Receive(f.note(msg.ID(rune('a'+i)), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	released := f.dev.MarkRead("t", []msg.ID{"a", "b", "ghost"})
	if released != 2 {
		t.Fatalf("released = %d, want 2", released)
	}
	if f.dev.QueueLen("t") != 1 {
		t.Errorf("QueueLen = %d", f.dev.QueueLen("t"))
	}
	if f.dev.Stats().PeerReleases != 2 {
		t.Errorf("PeerReleases = %d", f.dev.Stats().PeerReleases)
	}
	// The marked IDs count as consumed: re-receiving them is an update.
	if err := f.dev.Receive(f.note("a", 5, 0)); err != nil {
		t.Fatal(err)
	}
	if f.dev.QueueLen("t") != 1 {
		t.Error("released notification resurrected")
	}
}

func TestRefillRequestsPeek(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Receive(f.note("have", 3, 0)); err != nil {
		t.Fatal(err)
	}
	f.backend.respond = []*msg.Notification{f.note("topup", 4, 0)}
	if err := f.dev.Refill("t", 2); err != nil {
		t.Fatal(err)
	}
	if len(f.backend.requests) != 1 {
		t.Fatalf("requests = %d", len(f.backend.requests))
	}
	req := f.backend.requests[0]
	if !req.Peek {
		t.Error("refill request not marked Peek")
	}
	if req.N != 3 || req.QueueSize != 1 || len(req.ClientEvents) != 1 {
		t.Errorf("request = %+v", req)
	}
	if f.dev.QueueLen("t") != 2 {
		t.Errorf("QueueLen after refill = %d", f.dev.QueueLen("t"))
	}
	// Nothing was consumed.
	if f.dev.Stats().ReadCount != 0 {
		t.Error("refill consumed messages")
	}
}

func TestRefillNoopWhenDownOrZero(t *testing.T) {
	f := newFixture(Config{})
	if err := f.dev.Refill("t", 0); err != nil {
		t.Fatal(err)
	}
	f.lnk.SetUp(false)
	if err := f.dev.Refill("t", 3); err != nil {
		t.Fatal(err)
	}
	if len(f.backend.requests) != 0 {
		t.Error("refill relayed while down or with zero slots")
	}
}

func TestRefillBatteryDead(t *testing.T) {
	f := newFixture(Config{BatteryCapacity: 0.1, RequestCost: 0.5})
	f.dev.store.Stats.BatteryUsed = 0.2 // drained
	if err := f.dev.Refill("t", 1); err == nil {
		t.Error("refill succeeded on a dead battery")
	}
}
