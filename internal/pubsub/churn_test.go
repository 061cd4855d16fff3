package pubsub

import (
	"fmt"
	"sync"
	"testing"

	"lasthop/internal/msg"
)

// churnRec is a subscriber that records delivery multiplicity per ID.
type churnRec struct {
	mu  sync.Mutex
	got map[msg.ID]int
}

func newChurnRec() *churnRec { return &churnRec{got: make(map[msg.ID]int)} }

func (r *churnRec) Deliver(n *msg.Notification) {
	r.mu.Lock()
	r.got[n.ID]++
	r.mu.Unlock()
}

func (r *churnRec) DeliverRankUpdate(msg.RankUpdate) {}

// nopSub is the churn subscriber: deliveries to it are not asserted.
type nopSub struct{}

func (nopSub) Deliver(*msg.Notification)        {}
func (nopSub) DeliverRankUpdate(msg.RankUpdate) {}

// TestBrokerConcurrentChurn hammers the sharded broker with everything at
// once — publishes across many topics and subscribe/unsubscribe churn on
// the same topics — then asserts two stable subscribers per topic saw
// every notification exactly once. Run it under -race.
func TestBrokerConcurrentChurn(t *testing.T) {
	const (
		topics     = 24
		publishers = 4
		perPub     = 150
	)
	a := NewBroker("churn")

	names := make([]string, topics)
	recsA := make([]*churnRec, topics)
	recsB := make([]*churnRec, topics)
	for i := 0; i < topics; i++ {
		names[i] = fmt.Sprintf("churn/t%02d", i)
		if err := a.Advertise(names[i], "pub"); err != nil {
			t.Fatal(err)
		}
		recsA[i] = newChurnRec()
		recsB[i] = newChurnRec()
		if err := a.Subscribe(sub(names[i], "stable-a"), recsA[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.Subscribe(sub(names[i], "stable-b"), recsB[i]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var churners sync.WaitGroup
	for g := 0; g < 2; g++ {
		churners.Add(1)
		go func(g int) {
			defer churners.Done()
			who := fmt.Sprintf("churn-sub-%d", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				topic := names[i%topics]
				if err := a.Subscribe(sub(topic, who), nopSub{}); err != nil {
					t.Errorf("churn subscribe: %v", err)
					return
				}
				if err := a.Unsubscribe(topic, who); err != nil {
					t.Errorf("churn unsubscribe: %v", err)
					return
				}
			}
		}(g)
	}

	var pubs sync.WaitGroup
	for w := 0; w < publishers; w++ {
		pubs.Add(1)
		go func(w int) {
			defer pubs.Done()
			for i := 0; i < perPub; i++ {
				id := msg.ID(fmt.Sprintf("churn-w%d-%d", w, i))
				topic := names[(w*perPub+i)%topics]
				if err := a.Publish(note(id, topic, 1)); err != nil {
					t.Errorf("publish %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	pubs.Wait()
	close(stop)
	churners.Wait()

	// Every publish was acknowledged synchronously, so both stable
	// subscribers of a topic must now hold each of its IDs exactly once.
	want := make(map[string]int)
	for w := 0; w < publishers; w++ {
		for i := 0; i < perPub; i++ {
			want[names[(w*perPub+i)%topics]]++
		}
	}
	for i, topic := range names {
		for who, rec := range map[string]*churnRec{"stable-a": recsA[i], "stable-b": recsB[i]} {
			rec.mu.Lock()
			if len(rec.got) != want[topic] {
				t.Errorf("%s topic %s: %d unique IDs, want %d", who, topic, len(rec.got), want[topic])
			}
			for id, c := range rec.got {
				if c != 1 {
					t.Errorf("%s topic %s: %s delivered %d times", who, topic, id, c)
				}
			}
			rec.mu.Unlock()
		}
	}
}
