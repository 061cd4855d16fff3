package rankedq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lasthop/internal/msg"
)

// checkQueue verifies the handle representation: every heap position's
// handle names a slot that records that position and is indexed under its
// notification's ID, the heap is in rank order, and the free list holds
// exactly the slots no position refers to.
func checkQueue(q *Queue) error {
	a, h := &q.ids, &q.h
	size := len(h.heap)
	if len(q.index) != size {
		return fmt.Errorf("%d index entries for %d queued", len(q.index), size)
	}
	if size > len(a.Slots) {
		return fmt.Errorf("%d queued in an arena of %d", size, len(a.Slots))
	}
	live := make([]bool, len(a.Slots))
	for i, hd := range h.heap {
		if hd < 0 || int(hd) >= len(a.Slots) {
			return fmt.Errorf("position %d holds handle %d outside an arena of %d", i, hd, len(a.Slots))
		}
		if live[hd] {
			return fmt.Errorf("handle %d at two positions", hd)
		}
		live[hd] = true
		s := a.Slots[hd]
		switch {
		case s.N == nil:
			return fmt.Errorf("position %d holds empty slot %d", i, hd)
		case s.pos != int32(i):
			return fmt.Errorf("slot %d records position %d, sits at %d", hd, s.pos, i)
		case q.index[s.N.ID] != hd:
			return fmt.Errorf("%s indexed at handle %d, sits in %d", s.N.ID, q.index[s.N.ID], hd)
		case i > 0 && s.N.Before(h.at((i-1)/2)):
			return fmt.Errorf("position %d ranks ahead of its parent", i)
		}
	}
	free := 0
	for f := a.free; f != -1; f = a.Slots[f].pos {
		if f < 0 || int(f) >= len(a.Slots) {
			return fmt.Errorf("free list reaches handle %d outside an arena of %d", f, len(a.Slots))
		}
		if live[f] {
			return fmt.Errorf("handle %d is both queued and free", f)
		}
		if a.Slots[f].N != nil {
			return fmt.Errorf("free slot %d still holds %s", f, a.Slots[f].N.ID)
		}
		if free++; free > len(a.Slots) {
			return fmt.Errorf("free list cycles")
		}
	}
	if size+free != len(a.Slots) {
		return fmt.Errorf("%d queued + %d free != %d slots", size, free, len(a.Slots))
	}
	return nil
}

// queueState is a copy of a queue's representation, to show an operation
// left it untouched.
type queueState struct {
	slots []Slot
	heap  []int32
	free  int32
}

func snapshot(q *Queue) queueState {
	return queueState{slices.Clone(q.ids.Slots), slices.Clone(q.h.heap), q.ids.free}
}

func (s queueState) equal(q *Queue) bool {
	return slices.Equal(s.slots, q.ids.Slots) && slices.Equal(s.heap, q.h.heap) && s.free == q.ids.free
}

// TestQueueModel drives random operation sequences against a sorted-slice
// reference and checks every result, plus the representation after every
// operation. The push share swings between growth and drain phases so the
// queue crosses shrinkFloor both ways several times; ranks and publication
// instants come from small sets so every tie-break is exercised.
func TestQueueModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		var ref []*msg.Notification // in pop order
		sortRef := func() { slices.SortFunc(ref, (*msg.Notification).Compare) }
		drop := func(n *msg.Notification) {
			ref = slices.DeleteFunc(ref, func(r *msg.Notification) bool { return r == n })
		}
		grow, next, shrinks, prevCap := true, 0, 0, 0
		for step := 0; step < 3000; step++ {
			switch {
			case len(ref) > 3*shrinkFloor:
				grow = false
			case len(ref) < 4:
				grow = true
			}
			op := 10 + rng.Intn(10)
			if rng.Intn(4) < 3 == grow {
				op = 0
			}
			what := ""
			switch {
			case op < 10:
				what = "Push"
				n := note(msg.ID(fmt.Sprintf("m%05d", next)), float64(rng.Intn(5)))
				n.Published = t0.Add(time.Duration(rng.Intn(3)) * time.Second)
				next++
				if err := q.Push(n); err != nil {
					t.Fatalf("seed %d step %d: Push: %v", seed, step, err)
				}
				ref = append(ref, n)
				sortRef()
			case op < 12:
				what = "PopBest"
				n, ok := q.PopBest()
				if ok != (len(ref) > 0) || ok && n != ref[0] {
					t.Fatalf("seed %d step %d: PopBest = %v, %v", seed, step, n, ok)
				}
				if ok {
					ref = ref[1:]
				}
			case op < 14:
				what = "Remove"
				id := msg.ID(fmt.Sprintf("m%05d", rng.Intn(next+1)))
				want := slices.IndexFunc(ref, func(r *msg.Notification) bool { return r.ID == id })
				n, ok := q.Remove(id)
				if ok != (want >= 0) || ok && n != ref[want] {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, %v", seed, step, id, n, ok)
				}
				if ok {
					drop(n)
				}
			case op < 16:
				what = "UpdateRank"
				if len(ref) == 0 {
					continue
				}
				n := ref[rng.Intn(len(ref))]
				if !q.UpdateRank(n.ID, float64(rng.Intn(5))) {
					t.Fatalf("seed %d step %d: UpdateRank(%s) of a queued ID failed", seed, step, n.ID)
				}
				sortRef()
			case op < 18:
				what = "BestN"
				k := rng.Intn(len(ref) + 2)
				before := snapshot(q)
				got := q.BestN(k)
				want := ref[:min(k, len(ref))]
				if k == 0 {
					want = nil
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: BestN(%d) = %v, want %v", seed, step, k, ids(got), ids(want))
				}
				if !before.equal(q) {
					t.Fatalf("seed %d step %d: BestN(%d) of %d moved the heap", seed, step, k, len(ref))
				}
			default:
				what = "TakeBestN"
				k := rng.Intn(min(len(ref), 12) + 2)
				// Whole-queue takes only while growing, so every drain
				// passes through maybeShrink.
				if grow && rng.Intn(16) == 0 {
					k = len(ref) + rng.Intn(2)
				}
				got := q.TakeBestN(k)
				want := ref[:min(k, len(ref))]
				if !slices.Equal(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("seed %d step %d: TakeBestN(%d) = %v, want %v", seed, step, k, ids(got), ids(want))
				}
				ref = ref[len(want):]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: after %s Len = %d, reference holds %d", seed, step, what, q.Len(), len(ref))
			}
			if err := checkQueue(q); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, what, err)
			}
			if c := cap(q.ids.Slots); c < prevCap && q.Len() > 0 {
				shrinks++
			}
			prevCap = cap(q.ids.Slots)
		}
		if shrinks == 0 {
			t.Fatalf("seed %d: the queue never shrank", seed)
		}
	}
}

// TestQueueSteadyDepthAllocs: at a steady depth a push reuses the slot the
// last pop freed, and a partial BestN allocates only the slice it returns.
func TestQueueSteadyDepthAllocs(t *testing.T) {
	const depth = 200
	notes := make([]*msg.Notification, depth+2001) // AllocsPerRun adds a warm-up run
	for i := range notes {
		notes[i] = note(msg.ID(fmt.Sprintf("s%05d", i)), float64(i%7))
	}
	q := NewQueue()
	for _, n := range notes[:depth] {
		if err := q.Push(n); err != nil {
			t.Fatal(err)
		}
	}
	next := depth
	if a := testing.AllocsPerRun(2000, func() {
		_ = q.Push(notes[next])
		next++
		q.PopBest()
	}); a != 0 {
		t.Errorf("push + pop at depth %d: %v allocs, want 0", depth, a)
	}
	if a := testing.AllocsPerRun(100, func() { q.BestN(8) }); a != 1 {
		t.Errorf("BestN(8) of %d: %v allocs, want 1", depth, a)
	}
}
