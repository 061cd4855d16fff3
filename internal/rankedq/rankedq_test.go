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
	if _, ok := q.index["c"]; ok {
		t.Error("removed ID still indexed")
	}
	want := []msg.ID{"b", "d", "a"}
	for _, id := range want {
		n, ok := q.PopBest()
		if !ok || n.ID != id {
			t.Fatalf("after Remove, PopBest = %v, want %s", n, id)
		}
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
	best := q.BestN(1)[0]
	if best.ID != "a" || best.Rank != 10 {
		t.Errorf("after raise, best = %+v", best)
	}
	q.UpdateRank("a", 0)
	if best = q.BestN(1)[0]; best.ID != "c" {
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

// expiryArena is an ExpiryHeap over an Arena, with an index from ID to
// handle beside it, as the proxy's and the device's tables keep one.
type expiryArena struct {
	a   Arena
	x   ExpiryHeap
	ids map[msg.ID]int32
}

func newExpiryArena() *expiryArena {
	e := &expiryArena{a: NewArena(), ids: make(map[msg.ID]int32)}
	e.x = NewExpiryHeap(&e.a.Slots)
	return e
}

// add pushes n's deadline; notifications that never expire stay out.
func (e *expiryArena) add(n *msg.Notification) {
	if n.NeverExpires() {
		return
	}
	h := e.a.Add(n)
	e.ids[n.ID] = h
	e.x.Push(h)
}

// remove drops id's deadline, reporting whether it was in the heap.
func (e *expiryArena) remove(id msg.ID) bool {
	h, ok := e.ids[id]
	if ok {
		e.x.Remove(h)
		e.a.Release(h)
		delete(e.ids, id)
	}
	return ok
}

// popAllDue drains every entry PopDue reports due at now, in pop order.
func popAllDue(e *expiryArena, now time.Time) []msg.ID {
	var out []msg.ID
	for {
		h, ok := e.x.PopDue(now)
		if !ok {
			return out
		}
		id := e.a.Release(h).ID
		delete(e.ids, id)
		out = append(out, id)
	}
}

func TestExpiryIndexOrder(t *testing.T) {
	e := newExpiryArena()
	for _, n := range []*msg.Notification{
		expiring("a", 1, 3*time.Hour), expiring("b", 1, time.Hour), expiring("c", 1, 2*time.Hour), note("never", 1),
	} {
		e.add(n)
	}
	if e.x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", e.x.Len())
	}
	next, ok := e.x.NextExpiry()
	if !ok || !next.Equal(t0.Add(time.Hour)) {
		t.Errorf("NextExpiry = %v, %v", next, ok)
	}

	got := popAllDue(e, t0.Add(2*time.Hour))
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("PopDue drained %v, want [b c]", got)
	}
	if h, ok := e.x.PopDue(t0.Add(2 * time.Hour)); ok {
		t.Errorf("PopDue after draining = %v, want nothing due", h)
	}
	if e.x.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.x.Len())
	}
}

// TestExpiryIndexRemoveDuplicate: entries that share a deadline pop in ID
// order, and removal by handle takes exactly the one entry.
func TestExpiryIndexRemoveDuplicate(t *testing.T) {
	e := newExpiryArena()
	for _, id := range []msg.ID{"c", "a", "b"} {
		e.add(expiring(id, 1, time.Hour))
	}
	if !e.remove("b") || e.remove("b") {
		t.Error("Remove(b) did not take exactly one entry")
	}
	if got := fmt.Sprint(e.x.IDs()); got != "[a c]" && got != "[c a]" {
		t.Errorf("removed b, but IDs = %v", got)
	}
	if got := popAllDue(e, t0.Add(time.Hour)); fmt.Sprint(got) != "[a c]" {
		t.Errorf("PopDue drained %v, want [a c]", got)
	}
	if e.x.IDs() != nil {
		t.Errorf("drained, but IDs = %v", e.x.IDs())
	}
	if _, ok := e.x.NextExpiry(); ok {
		t.Error("NextExpiry on empty heap returned ok")
	}
}

// TestExpiryIndexProperty checks PopDue drains exactly the entries at or
// before the probe time.
func TestExpiryIndexProperty(t *testing.T) {
	f := func(lives []uint16, probe uint16) bool {
		e := newExpiryArena()
		want := map[msg.ID]bool{}
		for i, l := range lives {
			id := msg.ID(rune('a'+i%26)) + msg.ID(rune('0'+(i/26)%10)) + msg.ID(rune('0'+(i/260)%10))
			life := time.Duration(l) * time.Second
			e.add(expiring(id, 1, life))
			if life <= time.Duration(probe)*time.Second {
				want[id] = true
			}
		}
		got := popAllDue(e, t0.Add(time.Duration(probe)*time.Second))
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return e.x.Len() == len(lives)-len(want)
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
		e := newExpiryArena()
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
				e.add(expiring(id, 1, life))
				model[id] = life
			case 3:
				id := msg.ID(fmt.Sprintf("e%03d", rng.Intn(300)))
				_, held := model[id]
				if e.remove(id) != held {
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
				got := popAllDue(e, t0.Add(now))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: PopDue drained %v, want %v", seed, step, got, want)
				}
				for _, id := range want {
					delete(model, id)
				}
			}
			if e.x.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model holds %d", seed, step, e.x.Len(), len(model))
			}
		}
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
	grown := cap(q.ids.Slots)
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
	if c := cap(q.ids.Slots); c >= grown/2+1 {
		t.Fatalf("backing array not released: len=%d cap=%d (burst cap %d)", q.Len(), c, grown)
	}
	// Shrinking must preserve the index: every remaining ID resolves and
	// pops in rank order.
	seen := 0
	for q.Len() > 0 {
		n := q.BestN(1)[0]
		if h, ok := q.index[n.ID]; !ok || q.ids.Slots[h].N != n {
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
	before := cap(q.ids.Slots)
	for q.Len() > 0 {
		q.PopBest()
	}
	if c := cap(q.ids.Slots); c != before {
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
	grown := cap(q.ids.Slots)
	for _, id := range all[:burst-burst/16] {
		if _, ok := q.Remove(id); !ok {
			t.Fatalf("remove %q failed", id)
		}
	}
	if c := cap(q.ids.Slots); c >= grown {
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
		for _, h := range q.h.heap {
			_ = ref.Push(q.ids.Slots[h].N)
		}
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
			if h, ok := q.index[n.ID]; !ok || q.ids.Slots[h].N != n {
				t.Fatalf("seed %d: index broken for %s after BestN", seed, n.ID)
			}
		}
		if best := q.BestN(1); len(want) > 0 && (len(best) != 1 || best[0] != want[0]) {
			t.Fatalf("seed %d: BestN(1) = %v after BestN, want %s", seed, ids(best), want[0].ID)
		}

		grown := cap(q.ids.Slots)
		if got := q.TakeBestN(q.Len() + rng.Intn(3)); !same(got) {
			t.Fatalf("seed %d: TakeBestN = %v, pop order %v", seed, ids(got), ids(want))
		}
		if q.Len() != 0 || len(q.index) != 0 {
			t.Fatalf("seed %d: TakeBestN left %d items, %d index entries", seed, q.Len(), len(q.index))
		}
		if best := q.BestN(1); best != nil {
			t.Fatalf("seed %d: BestN(1) on a taken queue = %v", seed, ids(best))
		}
		if c := cap(q.ids.Slots); grown >= shrinkFloor && c != 0 || grown < shrinkFloor && c != grown {
			t.Fatalf("seed %d: capacity %d after taking a queue of capacity %d", seed, c, grown)
		}
		for _, n := range want {
			if _, ok := q.index[n.ID]; ok {
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
