package journal

import (
	"fmt"
	"os"
	"sort"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/msg"
	"lasthop/internal/simtime"
)

// Recorder wraps a proxy so every input is journaled before it is applied
// (write-ahead). Like the proxy, it is single-threaded under the owning
// scheduler.
type Recorder struct {
	proxy *core.Proxy
	sched simtime.Scheduler
	j     *Journal
}

// NewRecorder wraps an existing proxy with a journal.
func NewRecorder(sched simtime.Scheduler, proxy *core.Proxy, j *Journal) *Recorder {
	return &Recorder{proxy: proxy, sched: sched, j: j}
}

// Proxy exposes the wrapped proxy for read-only inspection.
func (r *Recorder) Proxy() *core.Proxy { return r.proxy }

// Close syncs and closes the underlying journal.
func (r *Recorder) Close() error { return r.j.Close() }

func (r *Recorder) log(e Entry) error {
	e.At = r.sched.Now()
	return r.j.Append(e)
}

// AddTopic journals and applies a topic registration.
func (r *Recorder) AddTopic(cfg core.TopicConfig) error {
	if err := r.log(Entry{Kind: KindAddTopic, TopicConfig: &cfg}); err != nil {
		return err
	}
	return r.proxy.AddTopic(cfg)
}

// RemoveTopic journals and applies a topic removal.
func (r *Recorder) RemoveTopic(name string) error {
	if err := r.log(Entry{Kind: KindRemoveTopic, TopicName: name}); err != nil {
		return err
	}
	return r.proxy.RemoveTopic(name)
}

// Notify journals and applies a notification arrival.
func (r *Recorder) Notify(n *msg.Notification) error {
	if err := r.log(Entry{Kind: KindNotify, Notification: n}); err != nil {
		return err
	}
	r.proxy.Notify(n)
	return nil
}

// ApplyRankUpdate journals and applies a rank revision.
func (r *Recorder) ApplyRankUpdate(u msg.RankUpdate) error {
	if err := r.log(Entry{Kind: KindRankUpdate, Update: &u}); err != nil {
		return err
	}
	r.proxy.ApplyRankUpdate(u)
	return nil
}

// Read journals and applies a device read.
func (r *Recorder) Read(req msg.ReadRequest) error {
	if err := r.log(Entry{Kind: KindRead, Read: &req}); err != nil {
		return err
	}
	return r.proxy.Read(req)
}

// Resume journals and applies a session-resumption reconciliation.
func (r *Recorder) Resume(topic string, have, read msg.IDSet) error {
	payload := &ResumePayload{Topic: topic, Have: idSlice(have), Read: idSlice(read)}
	if err := r.log(Entry{Kind: KindResume, Resume: payload}); err != nil {
		return err
	}
	return r.proxy.Resume(topic, have, read)
}

// idSlice flattens a set for journaling, sorted for stable journals.
func idSlice(s msg.IDSet) []msg.ID {
	out := make([]msg.ID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetNetwork journals and applies a last-hop status change.
func (r *Recorder) SetNetwork(up bool) error {
	if err := r.log(Entry{Kind: KindNetwork, NetworkUp: &up}); err != nil {
		return err
	}
	r.proxy.SetNetwork(up)
	return nil
}

// discard is the replay proxy's forwarder: the device received whatever
// the recorded proxy forwarded, so replay sends nothing.
type discard struct{}

func (discard) ForwardBatch([]*msg.Notification) error { return nil }

// Recover rebuilds a proxy from the journal at path and returns it on
// sched, the live scheduler, appending new inputs to the same journal.
// The entries replay into a muted proxy on a private Virtual clock that
// starts at the first entry's instant and moves to each entry's recorded
// instant, so the tuners see the recorded intervals and timers fire when
// they fell due. That clock then runs up to sched.Now(), and the state
// moves through core.Proxy.Export and Import into a proxy on sched that
// forwards to out, with the network down. Import runs inside sched.Run,
// and the deadlines still ahead re-arm there to fire at their own
// instants. A torn final entry (crash mid-append) is skipped; warnf (nil
// to discard) receives the diagnostic.
func Recover(sched simtime.Scheduler, out core.BatchForwarder, path string, warnf func(string, ...any)) (*Recorder, error) {
	var (
		clock  *simtime.Virtual
		replay *core.Proxy
	)
	err := ReadAllOpts(path, warnf, func(e Entry) error {
		if replay == nil {
			clock = simtime.NewVirtual(e.At)
			replay = core.New(clock, discard{})
			replay.SetNetwork(false)
		}
		if !e.At.IsZero() {
			clock.RunUntil(e.At)
		}
		switch e.Kind {
		case KindAddTopic:
			return replay.AddTopic(*e.TopicConfig)
		case KindRemoveTopic:
			return replay.RemoveTopic(e.TopicName)
		case KindNotify:
			replay.Notify(e.Notification)
		case KindRankUpdate:
			replay.ApplyRankUpdate(*e.Update)
		case KindRead:
			// Read errors during replay (for example a read for a topic
			// removed later in the journal) are not fatal.
			_ = replay.Read(*e.Read)
		case KindNetwork:
			replay.SetNetwork(*e.NetworkUp)
		case KindResume:
			// Like reads, resumes for topics removed later in the journal
			// are not fatal.
			_ = replay.Resume(e.Resume.Topic, msg.NewIDSet(e.Resume.Have...), msg.NewIDSet(e.Resume.Read...))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	j, err := Open(path)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	proxy := core.New(sched, out)
	sched.Run(func() {
		proxy.SetNetwork(false)
		if replay == nil {
			return
		}
		clock.RunUntil(sched.Now())
		if err = proxy.Import(replay.Export()); err != nil {
			proxy.Shutdown() // a partial Import may have armed timers
		}
	})
	if err != nil {
		_ = j.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	return NewRecorder(sched, proxy, j), nil
}

// Compact rewrites the journal at path to the entries that still
// determine proxy state as of now, preserving their original order:
// registrations of topics that were not later removed, unexpired
// notifications, rank updates that target them, and the reads and network
// changes on surviving topics. Entries for expired notifications are
// dropped; because their transfers influenced the proxy's view of the
// client queue, a recovered proxy's split between "already forwarded" and
// "still queued" can differ for the live messages — the READ protocol
// reconciles that at the device's next read, exactly as it does after a
// crash with an in-flight transfer. The live message set, topic
// configuration, and tuning state are preserved exactly.
//
// Compact returns the number of entries kept. It must not run concurrently
// with an appender on the same path.
func Compact(path string, now time.Time) (int, error) {
	var entries []Entry
	if err := ReadAll(path, func(e Entry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}

	// Pass 1: which topics survive, and which notifications are live.
	topicAdds := make(map[string]int) // topic -> index of last add
	liveNotes := make(map[msg.ID]bool)
	for i, e := range entries {
		switch e.Kind {
		case KindAddTopic:
			topicAdds[e.TopicConfig.Name] = i
		case KindRemoveTopic:
			delete(topicAdds, e.TopicName)
		case KindNotify:
			if !e.Notification.Expired(now) {
				liveNotes[e.Notification.ID] = true
			}
		}
	}
	surviving := func(topic string) bool {
		_, ok := topicAdds[topic]
		return ok
	}

	// Pass 2: order-preserving filter.
	out := make([]Entry, 0, len(entries))
	for i, e := range entries {
		keep := false
		switch e.Kind {
		case KindAddTopic:
			idx, ok := topicAdds[e.TopicConfig.Name]
			keep = ok && idx == i
		case KindRemoveTopic:
			// Removals are resolved into the surviving add set.
		case KindNotify:
			keep = liveNotes[e.Notification.ID] && surviving(e.Notification.Topic)
		case KindRankUpdate:
			keep = liveNotes[e.Update.ID] && surviving(e.Update.Topic)
		case KindRead:
			keep = surviving(e.Read.Topic)
		case KindNetwork:
			keep = true
		case KindResume:
			keep = surviving(e.Resume.Topic)
		}
		if keep {
			out = append(out, e)
		}
	}

	tmp := path + ".compact"
	j, err := Open(tmp)
	if err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	for _, e := range out {
		if err := j.Append(e); err != nil {
			_ = j.Close()
			return 0, fmt.Errorf("compact: %w", err)
		}
	}
	if err := j.Sync(); err != nil {
		_ = j.Close()
		return 0, fmt.Errorf("compact: %w", err)
	}
	if err := j.Close(); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	if err := replaceFile(tmp, path); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	return len(out), nil
}

func replaceFile(from, to string) error {
	return os.Rename(from, to)
}
