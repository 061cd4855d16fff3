// Package replica removes the last-hop proxy as a single point of failure
// (the paper's second future-work item, §4) by running the proxy as a
// replicated deterministic state machine: every replica consumes the
// identical input sequence (notifications, rank updates, reads, network
// changes), but only the active replica's forwards reach the device.
// Standbys forward into a sink, so their queues, histories, and auto-tuned
// limits track the active replica exactly; on failover a standby takes
// over with the full per-topic state already in place.
//
// Forward failures are the one nondeterministic input: the active replica
// observes them directly (and requeues), while standbys are told through a
// network-down signal. Any message in flight during a failure is
// reconciled by the READ protocol itself — the device's client_events
// deduplicate double-sends, and missed sends are re-requested at the next
// read — which is the same mechanism that makes the single proxy robust to
// a flaky last hop.
package replica

import (
	"errors"
	"fmt"

	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// Replicated coordinates a set of proxy replicas. Like the proxy itself it
// is single-threaded under the owning scheduler.
type Replicated struct {
	out      core.BatchForwarder
	replicas []*core.Proxy
	alive    []bool
	active   int
}

// gate is the per-replica forwarder: only the active replica reaches the
// real device.
type gate struct {
	r   *Replicated
	idx int
}

func (g *gate) ForwardBatch(batch []*msg.Notification) error {
	if g.r.active != g.idx {
		return nil // standby: track state silently
	}
	if err := g.r.out.ForwardBatch(batch); err != nil {
		// The active replica reacts internally (requeue + network
		// down); standbys learn through the replicated network signal.
		g.r.signalStandbysDown()
		return err
	}
	return nil
}

// New builds n replicas forwarding (when active) to out.
func New(sched simtime.Scheduler, out core.BatchForwarder, n int) (*Replicated, error) {
	if n < 1 {
		return nil, errors.New("need at least one replica")
	}
	if out == nil {
		return nil, errors.New("nil forwarder")
	}
	r := &Replicated{out: out, alive: make([]bool, n)}
	for i := 0; i < n; i++ {
		g := &gate{r: r, idx: i}
		r.replicas = append(r.replicas, core.New(sched, g))
		r.alive[i] = true
	}
	return r, nil
}

// Replicas returns the replica count.
func (r *Replicated) Replicas() int { return len(r.replicas) }

// Active returns the index of the active replica.
func (r *Replicated) Active() int { return r.active }

// AliveCount returns how many replicas have not crashed.
func (r *Replicated) AliveCount() int {
	count := 0
	for _, a := range r.alive {
		if a {
			count++
		}
	}
	return count
}

// each applies an input to every live replica, the active one first so the
// device observes the same latency as with a single proxy.
func (r *Replicated) each(fn func(p *core.Proxy) error) error {
	var firstErr error
	apply := func(i int) {
		if !r.alive[i] {
			return
		}
		if err := fn(r.replicas[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	apply(r.active)
	for i := range r.replicas {
		if i != r.active {
			apply(i)
		}
	}
	return firstErr
}

// AddTopic registers a topic on every replica.
func (r *Replicated) AddTopic(cfg core.TopicConfig) error {
	return r.each(func(p *core.Proxy) error { return p.AddTopic(cfg) })
}

// RemoveTopic unregisters a topic on every replica.
func (r *Replicated) RemoveTopic(name string) error {
	return r.each(func(p *core.Proxy) error { return p.RemoveTopic(name) })
}

// Notify replicates a notification arrival.
func (r *Replicated) Notify(n *msg.Notification) {
	_ = r.each(func(p *core.Proxy) error {
		p.Notify(n.Clone()) // replicas must not share mutable state
		return nil
	})
}

// ApplyRankUpdate replicates a rank revision.
func (r *Replicated) ApplyRankUpdate(u msg.RankUpdate) {
	_ = r.each(func(p *core.Proxy) error {
		p.ApplyRankUpdate(u)
		return nil
	})
}

// Read replicates a device read.
func (r *Replicated) Read(req msg.ReadRequest) error {
	return r.each(func(p *core.Proxy) error { return p.Read(req) })
}

// SetNetwork replicates a last-hop status change.
func (r *Replicated) SetNetwork(up bool) {
	_ = r.each(func(p *core.Proxy) error {
		p.SetNetwork(up)
		return nil
	})
}

// signalStandbysDown propagates an observed forward failure to standbys.
func (r *Replicated) signalStandbysDown() {
	for i, p := range r.replicas {
		if i != r.active && r.alive[i] {
			p.SetNetwork(false)
		}
	}
}

// Fail crashes the replica with the given index. If it was active, the
// next live replica takes over and immediately resumes forwarding.
func (r *Replicated) Fail(idx int) error {
	if idx < 0 || idx >= len(r.replicas) {
		return fmt.Errorf("no replica %d", idx)
	}
	if !r.alive[idx] {
		return fmt.Errorf("replica %d already failed", idx)
	}
	r.alive[idx] = false
	if idx != r.active {
		return nil
	}
	for i := range r.replicas {
		if r.alive[i] {
			r.active = i
			// The successor resumes forwarding with its tracked state;
			// kicking the network handler flushes anything pending.
			if r.replicas[i].NetworkUp() {
				r.replicas[i].SetNetwork(true)
			}
			return nil
		}
	}
	return errors.New("no live replicas remain")
}

// Snapshot returns the active replica's view of a topic.
func (r *Replicated) Snapshot(topic string) (core.TopicSnapshot, bool) {
	return r.replicas[r.active].Snapshot(topic)
}

// SnapshotOf returns a specific replica's view of a topic, for divergence
// checks in tests and monitoring.
func (r *Replicated) SnapshotOf(idx int, topic string) (core.TopicSnapshot, bool) {
	if idx < 0 || idx >= len(r.replicas) {
		return core.TopicSnapshot{}, false
	}
	return r.replicas[idx].Snapshot(topic)
}
