package rankedq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lasthop/internal/msg"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func note(id msg.ID, rank float64) *msg.Notification {
	return &msg.Notification{ID: id, Topic: "t", Rank: rank, Published: t0}
}

func expiring(id msg.ID, rank float64, life time.Duration) *msg.Notification {
	n := note(id, rank)
	n.Expires = t0.Add(life)
	return n
}

func TestQueuePushPopOrder(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3)} {
		if err := q.Push(n); err != nil {
			t.Fatalf("Push(%s): %v", n.ID, err)
		}
	}
	want := []msg.ID{"b", "c", "a"}
	for _, id := range want {
		n, ok := q.PopBest()
		if !ok || n.ID != id {
			t.Fatalf("PopBest = %v, want %s", n, id)
		}
	}
	if _, ok := q.PopBest(); ok {
		t.Error("PopBest on empty queue returned ok")
	}
}

func TestQueueDuplicatePush(t *testing.T) {
	q := NewQueue()
	if err := q.Push(note("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(note("a", 2)); err == nil {
		t.Error("duplicate push accepted")
	}
	if err := q.Push(nil); err == nil {
		t.Error("nil push accepted")
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3), note("d", 4)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	n, ok := q.Remove("c")
	if !ok || n.ID != "c" {
		t.Fatalf("Remove(c) = %v, %v", n, ok)
	}
	if _, ok := q.Remove("c"); ok {
		t.Error("second Remove(c) succeeded")
	}
	if q.Contains("c") {
		t.Error("removed ID still contained")
	}
	want := []msg.ID{"b", "d", "a"}
	for _, id := range want {
		n, ok := q.PopBest()
		if !ok || n.ID != id {
			t.Fatalf("after Remove, PopBest = %v, want %s", n, id)
		}
	}
}

func TestQueueGetContains(t *testing.T) {
	q := NewQueue()
	if err := q.Push(note("a", 2)); err != nil {
		t.Fatal(err)
	}
	n, ok := q.Get("a")
	if !ok || n.Rank != 2 {
		t.Errorf("Get(a) = %v, %v", n, ok)
	}
	if _, ok := q.Get("zz"); ok {
		t.Error("Get of absent ID succeeded")
	}
	if !q.Contains("a") || q.Contains("zz") {
		t.Error("Contains wrong")
	}
}

func TestQueueUpdateRank(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 2), note("c", 3)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	if !q.UpdateRank("a", 10) {
		t.Fatal("UpdateRank of queued ID failed")
	}
	if q.UpdateRank("zz", 10) {
		t.Fatal("UpdateRank of absent ID succeeded")
	}
	best, _ := q.PeekBest()
	if best.ID != "a" || best.Rank != 10 {
		t.Errorf("after raise, best = %+v", best)
	}
	q.UpdateRank("a", 0)
	best, _ = q.PeekBest()
	if best.ID != "c" {
		t.Errorf("after drop, best = %+v", best)
	}
}

func TestQueueBestN(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 5), note("c", 3), note("d", 4)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	got := q.BestN(2)
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "d" {
		t.Errorf("BestN(2) = %v", ids(got))
	}
	if q.Len() != 4 {
		t.Error("BestN mutated the queue")
	}
	if got := q.BestN(100); len(got) != 4 {
		t.Errorf("BestN(100) returned %d items", len(got))
	}
	if got := q.BestN(0); got != nil {
		t.Error("BestN(0) != nil")
	}

	taken := q.TakeBestN(3)
	if len(taken) != 3 || taken[0].ID != "b" || taken[1].ID != "d" || taken[2].ID != "c" {
		t.Errorf("TakeBestN(3) = %v", ids(taken))
	}
	if q.Len() != 1 {
		t.Errorf("after TakeBestN, Len = %d", q.Len())
	}
}

func TestQueueIDsEachClear(t *testing.T) {
	q := NewQueue()
	for _, n := range []*msg.Notification{note("a", 1), note("b", 2)} {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	idSlice := q.IDs()
	sort.Slice(idSlice, func(i, j int) bool { return idSlice[i] < idSlice[j] })
	if len(idSlice) != 2 || idSlice[0] != "a" || idSlice[1] != "b" {
		t.Errorf("IDs = %v", idSlice)
	}
	set := q.IDSet()
	if set.Len() != 2 || !set.Contains("a") {
		t.Errorf("IDSet = %v", set)
	}
	count := 0
	q.Each(func(*msg.Notification) { count++ })
	if count != 2 {
		t.Errorf("Each visited %d", count)
	}
	q.Clear()
	if q.Len() != 0 || q.Contains("a") {
		t.Error("Clear left state behind")
	}
}

// TestQueueHeapProperty drives a random operation sequence and checks that
// pops always come out in rank order and the index stays consistent.
func TestQueueHeapProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		live := map[msg.ID]float64{}
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				id := msg.ID(rune('a'+next%26)) + msg.ID(rune('0'+(next/26)%10))
				next++
				r := float64(rng.Intn(100))
				if _, dup := live[id]; dup {
					continue
				}
				if err := q.Push(note(id, r)); err != nil {
					return false
				}
				live[id] = r
			case 2: // pop best
				n, ok := q.PopBest()
				if !ok {
					if len(live) != 0 {
						return false
					}
					continue
				}
				maxRank := -1.0
				for _, r := range live {
					if r > maxRank {
						maxRank = r
					}
				}
				if n.Rank != maxRank {
					return false
				}
				delete(live, n.ID)
			case 3: // remove random live
				for id := range live {
					if _, ok := q.Remove(id); !ok {
						return false
					}
					delete(live, id)
					break
				}
			}
			if q.Len() != len(live) {
				return false
			}
		}
		// Drain: must come out in non-increasing rank order.
		prev := 1e18
		for {
			n, ok := q.PopBest()
			if !ok {
				break
			}
			if n.Rank > prev {
				return false
			}
			prev = n.Rank
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// popAllDue drains every entry PopDue reports due at now, in pop order.
func popAllDue(x *ExpiryIndex, now time.Time) []msg.ID {
	var out []msg.ID
	for {
		id, ok := x.PopDue(now)
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

func TestExpiryIndexOrder(t *testing.T) {
	x := NewExpiryIndex()
	if err := x.Add(expiring("a", 1, 3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(expiring("b", 1, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(expiring("c", 1, 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(note("never", 1)); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (never-expiring ignored)", x.Len())
	}
	next, ok := x.NextExpiry()
	if !ok || !next.Equal(t0.Add(time.Hour)) {
		t.Errorf("NextExpiry = %v, %v", next, ok)
	}

	got := popAllDue(x, t0.Add(2*time.Hour))
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("PopDue drained %v, want [b c]", got)
	}
	if id, ok := x.PopDue(t0.Add(2 * time.Hour)); ok {
		t.Errorf("PopDue after draining = %v, want nothing due", id)
	}
	if x.Len() != 1 {
		t.Errorf("Len = %d, want 1", x.Len())
	}
}

func TestExpiryIndexRemoveDuplicate(t *testing.T) {
	x := NewExpiryIndex()
	n := expiring("a", 1, time.Hour)
	if err := x.Add(n); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(n); err == nil {
		t.Error("duplicate Add accepted")
	}
	if !x.Contains("a") || fmt.Sprint(x.IDs()) != "[a]" {
		t.Errorf("indexed a, but Contains = %v and IDs = %v", x.Contains("a"), x.IDs())
	}
	if !x.Remove("a") {
		t.Error("Remove of indexed ID failed")
	}
	if x.Remove("a") {
		t.Error("second Remove succeeded")
	}
	if x.Contains("a") || x.IDs() != nil {
		t.Errorf("removed a, but Contains = %v and IDs = %v", x.Contains("a"), x.IDs())
	}
	if _, ok := x.NextExpiry(); ok {
		t.Error("NextExpiry on empty index returned ok")
	}
}

// TestExpiryIndexProperty checks PopDue drains exactly the entries at or
// before the probe time.
func TestExpiryIndexProperty(t *testing.T) {
	f := func(lives []uint16, probe uint16) bool {
		x := NewExpiryIndex()
		want := map[msg.ID]bool{}
		for i, l := range lives {
			id := msg.ID(rune('a'+i%26)) + msg.ID(rune('0'+(i/26)%10)) + msg.ID(rune('0'+(i/260)%10))
			life := time.Duration(l) * time.Second
			if err := x.Add(expiring(id, 1, life)); err != nil {
				return false
			}
			if life <= time.Duration(probe)*time.Second {
				want[id] = true
			}
		}
		got := popAllDue(x, t0.Add(time.Duration(probe)*time.Second))
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return x.Len() == len(lives)-len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestExpiryIndexInterleaved checks the hand-maintained heap against a
// sorted model under interleaved adds, removals from anywhere, and pops:
// PopDue must drain exactly the due entries in (expiry, ID) order.
func TestExpiryIndexInterleaved(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := NewExpiryIndex()
		model := map[msg.ID]time.Duration{}
		now := time.Duration(0)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(5) {
			case 0, 1, 2:
				id := msg.ID(fmt.Sprintf("e%03d", rng.Intn(300)))
				if _, held := model[id]; held {
					continue
				}
				life := now + time.Duration(rng.Intn(50))*time.Second
				if err := x.Add(expiring(id, 1, life)); err != nil {
					t.Fatal(err)
				}
				model[id] = life
			case 3:
				id := msg.ID(fmt.Sprintf("e%03d", rng.Intn(300)))
				_, held := model[id]
				if x.Remove(id) != held {
					t.Fatalf("seed %d step %d: Remove(%s) disagrees with the model (held %v)", seed, step, id, held)
				}
				delete(model, id)
			case 4:
				now += time.Duration(rng.Intn(20)) * time.Second
				var want []msg.ID
				for id, life := range model {
					if life <= now {
						want = append(want, id)
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if model[want[i]] != model[want[j]] {
						return model[want[i]] < model[want[j]]
					}
					return want[i] < want[j]
				})
				got := popAllDue(x, t0.Add(now))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: PopDue drained %v, want %v", seed, step, got, want)
				}
				for _, id := range want {
					delete(model, id)
				}
			}
			if x.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model holds %d", seed, step, x.Len(), len(model))
			}
		}
	}
}

func TestHistoryUnbounded(t *testing.T) {
	h := NewHistory(0)
	if evicted, added := h.Add("a"); len(evicted) != 0 || !added {
		t.Error("first Add wrong")
	}
	if _, added := h.Add("a"); added {
		t.Error("duplicate Add reported added")
	}
	if !h.Contains("a") || h.Contains("b") {
		t.Error("Contains wrong")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory(3)
	for _, id := range []msg.ID{"a", "b", "c"} {
		if evicted, _ := h.Add(id); len(evicted) != 0 {
			t.Fatalf("premature eviction %v", evicted)
		}
	}
	evicted, added := h.Add("d")
	if !added || len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("Add(d) evicted %v, added %v; want [a], true", evicted, added)
	}
	if h.Contains("a") {
		t.Error("evicted ID still contained")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	oldest, ok := h.Oldest()
	if !ok || oldest != "b" {
		t.Errorf("Oldest = %v, %v; want b", oldest, ok)
	}
}

func TestHistoryRemove(t *testing.T) {
	h := NewHistory(0)
	h.Add("a")
	h.Add("b")
	if !h.Remove("a") {
		t.Error("Remove of member failed")
	}
	if h.Remove("a") {
		t.Error("second Remove succeeded")
	}
	oldest, ok := h.Oldest()
	if !ok || oldest != "b" {
		t.Errorf("Oldest after Remove = %v, %v; want b", oldest, ok)
	}
}

// TestHistoryCapacityProperty: after any insertion sequence the history
// holds at most capacity entries and they are the most recent distinct ones.
func TestHistoryCapacityProperty(t *testing.T) {
	f := func(ids []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		h := NewHistory(capacity)
		var model []msg.ID // naive FIFO set model of the same semantics
		inModel := func(id msg.ID) bool {
			for _, m := range model {
				if m == id {
					return true
				}
			}
			return false
		}
		for _, b := range ids {
			id := msg.ID(rune('a' + b%32))
			h.Add(id)
			if !inModel(id) {
				model = append(model, id)
				if len(model) > capacity {
					model = model[1:]
				}
			}
		}
		if h.Len() != len(model) {
			return false
		}
		for _, id := range model {
			if !h.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistoryCompaction(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 10000; i++ {
		h.Add(msg.ID(rune('a'+i%26)) + msg.ID(rune('0'+(i/26)%10)) + msg.ID(rune('0'+(i/260)%10)) + msg.ID(rune('0'+(i/2600)%10)))
	}
	if h.Len() != 4 {
		t.Errorf("Len = %d, want 4", h.Len())
	}
	if len(h.order)-h.head > 64 {
		t.Errorf("order slice not compacted: len=%d head=%d", len(h.order), h.head)
	}
}

func ids(notes []*msg.Notification) []msg.ID {
	out := make([]msg.ID, len(notes))
	for i, n := range notes {
		out[i] = n.ID
	}
	return out
}

func TestQueueShrinksAfterBurst(t *testing.T) {
	q := NewQueue()
	const burst = 1024
	for i := 0; i < burst; i++ {
		if err := q.Push(note(msg.ID(fmt.Sprintf("n%04d", i)), float64(i%7))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	grown := cap(q.ids.slots)
	if grown < burst {
		t.Fatalf("expected capacity >= %d after burst, got %d", burst, grown)
	}
	// Drain below a quarter of the high-water capacity: the backing array
	// must be released rather than pinned at burst size forever.
	for q.Len() > grown/8 {
		if _, ok := q.PopBest(); !ok {
			t.Fatal("queue drained early")
		}
	}
	if c := cap(q.ids.slots); c >= grown/2+1 {
		t.Fatalf("backing array not released: len=%d cap=%d (burst cap %d)", q.Len(), c, grown)
	}
	// Shrinking must preserve the index: every remaining ID resolves and
	// pops in rank order.
	seen := 0
	for {
		n, ok := q.PeekBest()
		if !ok {
			break
		}
		if got, ok := q.Get(n.ID); !ok || got != n {
			t.Fatalf("index broken after shrink for %q", n.ID)
		}
		if popped, ok := q.PopBest(); !ok || popped != n {
			t.Fatalf("pop mismatch after shrink for %q", n.ID)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("expected survivors after partial drain")
	}
}

func TestQueueSmallNeverShrinks(t *testing.T) {
	q := NewQueue()
	for i := 0; i < shrinkFloor/4; i++ {
		if err := q.Push(note(msg.ID(fmt.Sprintf("s%02d", i)), float64(i))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	before := cap(q.ids.slots)
	for q.Len() > 0 {
		q.PopBest()
	}
	if c := cap(q.ids.slots); c != before {
		t.Fatalf("small queue shrank below floor: cap %d -> %d", before, c)
	}
}

func TestQueueRemoveShrinks(t *testing.T) {
	q := NewQueue()
	const burst = 512
	all := make([]msg.ID, 0, burst)
	for i := 0; i < burst; i++ {
		id := msg.ID(fmt.Sprintf("r%04d", i))
		all = append(all, id)
		if err := q.Push(note(id, float64(i))); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	grown := cap(q.ids.slots)
	for _, id := range all[:burst-burst/16] {
		if _, ok := q.Remove(id); !ok {
			t.Fatalf("remove %q failed", id)
		}
	}
	if c := cap(q.ids.slots); c >= grown {
		t.Fatalf("Remove path did not shrink: cap still %d (burst cap %d)", c, grown)
	}
}

// TestQueueWholeQueueMatchesPopOrder: a read of at least the whole queue
// sorts instead of popping, and must hand out exactly what a PopBest loop
// would. Ranks and publication instants come from small sets so every
// tie-break is exercised; Remove and UpdateRank interleave with the pushes
// so the heap is not in insertion shape; sizes span 0–3 × shrinkFloor so
// both memory branches of TakeBestN run.
func TestQueueWholeQueueMatchesPopOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		var live []msg.ID
		steps := rng.Intn(4 * shrinkFloor)
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(10); {
			case op < 7 || len(live) == 0:
				n := note(msg.ID(fmt.Sprintf("w%03d", i)), float64(rng.Intn(4)))
				n.Published = t0.Add(time.Duration(rng.Intn(3)) * time.Second)
				if err := q.Push(n); err != nil {
					t.Fatal(err)
				}
				live = append(live, n.ID)
			case op < 9:
				k := rng.Intn(len(live))
				if _, ok := q.Remove(live[k]); !ok {
					t.Fatalf("seed %d: Remove(%s) of a queued ID failed", seed, live[k])
				}
				live = append(live[:k], live[k+1:]...)
			default:
				q.UpdateRank(live[rng.Intn(len(live))], float64(rng.Intn(4)))
			}
		}

		// The reference order: pop a copy of the queue dry.
		ref := NewQueue()
		q.Each(func(n *msg.Notification) { _ = ref.Push(n) })
		var want []*msg.Notification
		for {
			n, ok := ref.PopBest()
			if !ok {
				break
			}
			want = append(want, n)
		}
		same := func(got []*msg.Notification) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}

		before := snapshot(q)
		if got := q.BestN(q.Len() + rng.Intn(3)); !same(got) {
			t.Fatalf("seed %d: BestN = %v, pop order %v", seed, ids(got), ids(want))
		}
		if !before.equal(q) || q.Len() != len(want) {
			t.Fatalf("seed %d: BestN of the whole queue moved the heap", seed)
		}
		if err := checkQueue(q); err != nil {
			t.Fatalf("seed %d: after BestN: %v", seed, err)
		}
		for _, n := range want {
			if got, ok := q.Get(n.ID); !ok || got != n || !q.Contains(n.ID) {
				t.Fatalf("seed %d: index broken for %s after BestN", seed, n.ID)
			}
		}
		if best, ok := q.PeekBest(); len(want) > 0 && (!ok || best != want[0]) {
			t.Fatalf("seed %d: PeekBest = %v after BestN, want %s", seed, best, want[0].ID)
		}

		grown := cap(q.ids.slots)
		if got := q.TakeBestN(q.Len() + rng.Intn(3)); !same(got) {
			t.Fatalf("seed %d: TakeBestN = %v, pop order %v", seed, ids(got), ids(want))
		}
		if q.Len() != 0 || len(q.ids.index) != 0 {
			t.Fatalf("seed %d: TakeBestN left %d items, %d index entries", seed, q.Len(), len(q.ids.index))
		}
		if _, ok := q.PeekBest(); ok {
			t.Fatalf("seed %d: PeekBest on a taken queue returned ok", seed)
		}
		if c := cap(q.ids.slots); grown >= shrinkFloor && c != 0 || grown < shrinkFloor && c != grown {
			t.Fatalf("seed %d: capacity %d after taking a queue of capacity %d", seed, c, grown)
		}
		for _, n := range want {
			if q.Contains(n.ID) {
				t.Fatalf("seed %d: %s still indexed after TakeBestN", seed, n.ID)
			}
		}

		// The emptied queue is fully usable, taken IDs included.
		for i, n := range want {
			if i == 8 {
				break
			}
			if err := q.Push(note(n.ID, float64(i))); err != nil {
				t.Fatalf("seed %d: re-push of taken %s: %v", seed, n.ID, err)
			}
		}
		if len(want) >= 2 {
			if _, ok := q.Remove(want[0].ID); !ok {
				t.Fatalf("seed %d: Remove after TakeBestN failed", seed)
			}
			prev := math.Inf(1)
			for q.Len() > 0 {
				n, _ := q.PopBest()
				if n.Rank > prev || n.ID == want[0].ID {
					t.Fatalf("seed %d: PopBest after TakeBestN returned %s (rank %v, previous %v)", seed, n.ID, n.Rank, prev)
				}
				prev = n.Rank
			}
		}
	}
}

// BenchmarkQueueTakeAll is one device read of a 2,048-deep queue with
// Max = ∞: refill, offer (BestN of the whole queue), take (TakeBestN of it).
func BenchmarkQueueTakeAll(b *testing.B) {
	const depth = 2048
	notes := make([]*msg.Notification, depth)
	rng := rand.New(rand.NewSource(1))
	for i := range notes {
		notes[i] = note(msg.ID(fmt.Sprintf("b%05d", i)), float64(rng.Intn(100)))
	}
	q := NewQueue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range notes {
			_ = q.Push(n)
		}
		if got := len(q.BestN(depth)); got != depth {
			b.Fatalf("BestN returned %d", got)
		}
		if got := len(q.TakeBestN(depth)); got != depth {
			b.Fatalf("TakeBestN returned %d", got)
		}
	}
}
