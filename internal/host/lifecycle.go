package host

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/core"
	"lasthop/internal/flight"
	"lasthop/internal/msg"
	"lasthop/internal/spool"
)

// sessionState is the lifecycle position of one session. Transitions run
// only on the session's worker wheel; reads take s.mu.
//
//	resident --(disconnected HibernateAfter, snapshot appended)--> hibernating
//	hibernating --(group commit)--> hibernated
//	hibernating --(device reconnects before the commit)--> resident
//	hibernated --(hello rehydrates)--> resident
type sessionState uint8

const (
	// stateResident: the proxy lives in memory; the spool holds at most a
	// stale chain from an earlier hibernation (kept as the crash
	// fallback).
	stateResident sessionState = iota
	// stateHibernating: the snapshot is appended (process-crash durable)
	// but its group commit hasn't run; memory is still authoritative and
	// arrivals go to both.
	stateHibernating
	// stateHibernated: memory is dropped; the session is a directory
	// entry (name → spool locations) and arrivals append deltas.
	stateHibernated
)

func (st sessionState) String() string {
	switch st {
	case stateResident:
		return "resident"
	case stateHibernating:
		return "hibernating"
	case stateHibernated:
		return "hibernated"
	}
	return fmt.Sprintf("state(%d)", uint8(st))
}

// deliverNotify routes one upstream notification by lifecycle state. Runs
// on the wheel.
func (s *Session) deliverNotify(n *msg.Notification) {
	switch s.stateNow() {
	case stateResident:
		s.proxy.Notify(n) // ownership transfers: the proxy releases it
	case stateHibernating:
		// Memory is still authoritative (the device may return before the
		// commit), but the disk chain must also be complete in case it
		// doesn't: snapshot + deltas must replay to the same state. The
		// delta is serialized first — Notify may drop (and recycle) the
		// pooled note immediately.
		s.spoolDelta(msg.SpoolDelta{Notification: n, Trace: n.Trace})
		s.proxy.Notify(n)
	case stateHibernated:
		s.spoolDelta(msg.SpoolDelta{Notification: n, Trace: n.Trace})
		burst.Notes.Put(n) // serialized to disk; the memory copy is done
	}
}

// deliverRank routes one upstream rank revision by lifecycle state. Runs
// on the wheel.
func (s *Session) deliverRank(u msg.RankUpdate) {
	switch s.stateNow() {
	case stateResident:
		s.proxy.ApplyRankUpdate(u)
	case stateHibernating:
		s.proxy.ApplyRankUpdate(u)
		s.spoolDelta(msg.SpoolDelta{Rank: &u})
	case stateHibernated:
		s.spoolDelta(msg.SpoolDelta{Rank: &u})
	}
}

func (s *Session) stateNow() sessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// spoolDelta appends one incremental record to the session's chain. Runs
// on the wheel.
func (s *Session) spoolDelta(d msg.SpoolDelta) {
	payload, err := json.Marshal(d)
	if err != nil {
		s.host.logf("host: session %s: encode delta: %v", s.name, err)
		return
	}
	loc, err := s.w.spool.Append(spool.Record{
		Kind: spool.KindDelta, Name: s.name, Payload: payload, At: time.Now(),
	}, nil)
	if err != nil {
		s.host.logf("host: session %s: spool delta: %v", s.name, err)
		return
	}
	s.mu.Lock()
	s.deltas = append(s.deltas, loc)
	s.mu.Unlock()
	s.host.spooledDeltas.Add(1)
}

// spoolMembership appends a topic-membership correction to the session's
// existing spool chain, making a subscribe or unsubscribe durable against
// the snapshot it would otherwise silently contradict. Without a chain
// there is nothing to correct — the next snapshot records the membership
// wholesale. Runs on the wheel.
func (s *Session) spoolMembership(d msg.SpoolDelta) {
	if s.w.spool == nil {
		return
	}
	s.mu.Lock()
	hasChain := !s.snap.IsZero()
	s.mu.Unlock()
	if hasChain {
		s.spoolDelta(d)
	}
}

// armHibernate starts the idle countdown after a disconnect. Runs on the
// wheel.
func (s *Session) armHibernate() {
	if s.w.spool == nil || s.hibArmed {
		return
	}
	s.hibArmed = true
	s.hibTimer = s.w.wheel.Schedule(s.host.opts.HibernateAfter, s.hibernate)
}

// cancelHibernate stops the countdown (device back). Runs on the wheel.
func (s *Session) cancelHibernate() {
	if s.hibArmed {
		s.hibTimer.Cancel()
		s.hibArmed = false
	}
}

// topicList returns the session's subscribed topics, sorted.
func (s *Session) topicList() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.topics))
	for t := range s.topics {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// hibernate serializes the session to the spool. The memory drop is
// deferred to the group commit (completeHibernate); until then the device
// can reclaim the session without a rehydration. Runs on the wheel.
func (s *Session) hibernate() {
	s.hibArmed = false
	s.mu.Lock()
	busy := s.conn != nil || s.state != stateResident
	s.mu.Unlock()
	if busy || s.proxy == nil {
		return
	}
	payload, err := json.Marshal(s.proxy.Export())
	if err != nil {
		s.host.logf("host: session %s: encode snapshot: %v", s.name, err)
		return
	}
	meta, err := json.Marshal(msg.SpoolMeta{Topics: s.topicList()})
	if err != nil {
		s.host.logf("host: session %s: encode snapshot meta: %v", s.name, err)
		return
	}
	loc, err := s.w.spool.Append(spool.Record{
		Kind: spool.KindSnapshot, Name: s.name, Meta: meta, Payload: payload, At: time.Now(),
	}, s.completeHibernate)
	if err != nil {
		// The session simply stays resident; the next disconnect retries.
		s.host.logf("host: session %s: spool snapshot: %v", s.name, err)
		return
	}
	s.mu.Lock()
	s.state = stateHibernating
	s.snap = loc
	s.deltas = nil
	s.mu.Unlock()
}

// completeHibernate drops the in-memory proxy once the snapshot's group
// commit ran. It executes inside the worker's commit tick — a wheel
// callback — so it is serialized with every other proxy access. A device
// that reconnected in the window already flipped the state back to
// resident, making this a no-op.
func (s *Session) completeHibernate() {
	s.mu.Lock()
	if s.state != stateHibernating {
		s.mu.Unlock()
		return
	}
	s.state = stateHibernated
	s.mu.Unlock()
	s.proxy.Shutdown() // the wheel must not keep firing a dropped proxy's timers
	s.proxy = nil
	flight.Record(flight.SubLifecycle, flight.KindHibernate, int32(s.w.id), s.host.hibernations.Add(1), 0)
}

// ensureResident brings the session back to memory if it isn't. Runs on
// the wheel (attach's serialized callback), so two connections racing a
// hello for the same name rehydrate exactly once.
func (s *Session) ensureResident() {
	s.mu.Lock()
	st := s.state
	if st == stateHibernating {
		// The snapshot is on disk but memory was never dropped: abort the
		// drop, the disk chain goes stale and is superseded next time.
		s.state = stateResident
	}
	s.mu.Unlock()
	if st == stateHibernated {
		s.rehydrate()
	}
}

// rehydrate rebuilds the proxy from the spool chain: latest snapshot,
// then every delta in order, replayed through the normal NOTIFICATION
// path. Reconciliation with the device itself happens afterwards via the
// usual §3.5 resume (READ-ID sets), so the worst case is
// duplicate-suppressed redelivery, never loss. Runs on the wheel.
func (s *Session) rehydrate() {
	start := time.Now()
	s.mu.Lock()
	snapLoc := s.snap
	deltas := append([]spool.Loc(nil), s.deltas...)
	s.mu.Unlock()
	maxRec := s.host.opts.SpoolMaxRecordBytes

	p := s.newProxy()
	restored := false
	if !snapLoc.IsZero() {
		var ps core.ProxySnapshot
		rec, err := spool.ReadRecord(snapLoc, maxRec)
		if err == nil {
			err = json.Unmarshal(rec.Payload, &ps)
		}
		if err == nil {
			err = p.Import(&ps)
		}
		if err != nil {
			// A corrupt snapshot cannot be recovered; the session restarts
			// empty and the device's subscribe + resume rebuild what they
			// can. Anything irrecoverable then surfaces as ResumeLost —
			// counted, never silent.
			s.host.logf("host: session %s: rehydrate snapshot %s@%d: %v (restarting empty)",
				s.name, snapLoc.Path, snapLoc.Offset, err)
			s.host.rehydrateFailures.Add(1)
			p.Shutdown() // a partial Import may have armed timers
			p = s.newProxy()
		} else {
			restored = true
		}
	}
	if restored {
		for _, loc := range deltas {
			rec, err := spool.ReadRecord(loc, maxRec)
			if err != nil {
				s.host.logf("host: session %s: rehydrate delta %s@%d: %v (skipped)",
					s.name, loc.Path, loc.Offset, err)
				s.host.rehydrateFailures.Add(1)
				continue
			}
			var d msg.SpoolDelta
			if err := json.Unmarshal(rec.Payload, &d); err != nil {
				s.host.logf("host: session %s: decode delta %s@%d: %v (skipped)",
					s.name, loc.Path, loc.Offset, err)
				s.host.rehydrateFailures.Add(1)
				continue
			}
			switch {
			case d.Notification != nil:
				d.Notification.Trace = d.Trace
				p.Notify(d.Notification)
			case d.Rank != nil:
				p.ApplyRankUpdate(*d.Rank)
			case d.Unsubscribe != "":
				// The session dropped the topic after the snapshot; the
				// replayed copy must not resurrect it. An error here is
				// normal when the import restarted empty.
				_ = p.RemoveTopic(d.Unsubscribe)
			case d.Subscribe != "":
				// Membership-only correction for crash recovery; the
				// proxy-side configuration returns with the device's
				// reasserting subscribe.
			}
		}
	}
	// The session's live topic set is authoritative over the chain: drop
	// any topic the replayed snapshot carries that the session has since
	// unsubscribed (belt and braces for a membership delta that failed to
	// append).
	for _, topic := range p.Topics() {
		if !s.hasTopic(topic) {
			_ = p.RemoveTopic(topic)
		}
	}
	s.proxy = p
	s.mu.Lock()
	s.state = stateResident
	s.mu.Unlock()
	d := time.Since(start)
	flight.Record(flight.SubLifecycle, flight.KindRehydrate, int32(s.w.id), int64(d), 0)
	s.host.observeRehydrate(d)
}

// observeRehydrate counts one completed rehydration and, once metrics are
// registered, records its latency.
func (h *Host) observeRehydrate(d time.Duration) {
	h.rehydrations.Add(1)
	if hist := h.rehydrateHist.Load(); hist != nil {
		hist.Observe(d.Seconds())
	}
}

// recoverSpooled rebuilds the session directory and the subscription
// table from the spool (see ScanSpool). Runs from New before any traffic.
func (h *Host) recoverSpooled() error {
	spooled, err := ScanSpool(h.opts.SpoolDir, h.opts.SpoolMaxRecordBytes, h.logf)
	if err != nil {
		return err
	}
	for _, sp := range spooled {
		topicSet := make(map[string]struct{}, len(sp.Topics))
		for _, t := range sp.Topics {
			topicSet[t] = struct{}{}
		}
		s := &Session{
			host:   h,
			name:   sp.Name,
			w:      h.workerFor(sp.Name),
			state:  stateHibernated,
			snap:   sp.Snap,
			deltas: sp.Deltas,
			topics: topicSet,
		}
		for t := range topicSet {
			ts := h.topics[t]
			if ts == nil {
				ready := make(chan struct{})
				close(ready) // resolved: New subscribes before serving
				ts = &topicSub{ready: ready}
				h.topics[t] = ts
			}
			ts.sessions = withSession(ts.sessions, s)
		}
		h.sessions[sp.Name] = s
	}
	if len(spooled) > 0 {
		h.logf("host: recovered %d hibernated sessions across %d topics from %s",
			len(spooled), len(h.topics), h.opts.SpoolDir)
	}
	return nil
}

// SpooledSession is one session a restart restores from the spool: the
// snapshot its chain starts from, the deltas replayed on top of it, and
// its subscription set.
type SpooledSession struct {
	Name string
	// Snap addresses the snapshot the chain starts from, taken at SnapAt.
	Snap   spool.Loc
	SnapAt time.Time
	// Deltas are the records rehydration replays, in replay order.
	Deltas []spool.Loc
	// Topics is the subscription set recovery restores, sorted.
	Topics []string
}

// ScanSpool applies the recovery chain rule to the spool root dir (see
// spool.SegmentDirs) and returns, sorted by name, the sessions a host
// started on dir restores. It reads every worker directory, including
// those of workers a previous run had and this one doesn't: the full
// chain location is in each record's Loc, so resharding is harmless.
// Per session name, the latest snapshot wins, the deltas at or after it
// replay in (time, segment, offset) order, and a tombstone newer than
// the snapshot ends the session.
func ScanSpool(dir string, maxRecord int, logf func(string, ...any)) ([]SpooledSession, error) {
	dirs, err := spool.SegmentDirs(dir)
	if err != nil {
		return nil, err
	}
	type timedLoc struct {
		loc spool.Loc
		at  time.Time
	}
	type memberEvent struct {
		topic string
		add   bool
		loc   spool.Loc
		at    time.Time
	}
	type chain struct {
		snap    spool.Loc
		snapAt  time.Time
		tombAt  time.Time
		topics  []string
		deltas  []timedLoc
		members []memberEvent
	}
	// Membership corrections hide among ordinary deltas; the key probe
	// avoids a JSON parse of every notification payload (both field names
	// end in `subscribe"`, and a false positive only costs one parse).
	memberHint := []byte(`subscribe"`)
	chains := make(map[string]*chain)
	for _, segDir := range dirs {
		err := spool.ScanDir(segDir, maxRecord, logf, func(loc spool.Loc, r spool.Record) error {
			c := chains[r.Name]
			if c == nil {
				c = &chain{}
				chains[r.Name] = c
			}
			switch r.Kind {
			case spool.KindSnapshot:
				// Last writer wins on equal timestamps: a crashed
				// compaction leaves identical duplicates, either of which
				// is correct.
				if c.snap.IsZero() || !r.At.Before(c.snapAt) {
					c.snap, c.snapAt = loc, r.At
					var m msg.SpoolMeta
					if err := json.Unmarshal(r.Meta, &m); err == nil {
						c.topics = m.Topics
					}
				}
			case spool.KindDelta:
				c.deltas = append(c.deltas, timedLoc{loc, r.At})
				if bytes.Contains(r.Payload, memberHint) {
					var d msg.SpoolDelta
					if err := json.Unmarshal(r.Payload, &d); err == nil {
						if d.Subscribe != "" {
							c.members = append(c.members, memberEvent{d.Subscribe, true, loc, r.At})
						}
						if d.Unsubscribe != "" {
							c.members = append(c.members, memberEvent{d.Unsubscribe, false, loc, r.At})
						}
					}
				}
			case spool.KindTombstone:
				if r.At.After(c.tombAt) {
					c.tombAt = r.At
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []SpooledSession
	for name, c := range chains {
		if c.snap.IsZero() || (!c.tombAt.IsZero() && c.tombAt.After(c.snapAt)) {
			continue
		}
		live := c.deltas[:0]
		for _, d := range c.deltas {
			if !d.at.Before(c.snapAt) {
				live = append(live, d)
			}
		}
		sort.Slice(live, func(i, j int) bool {
			a, b := live[i], live[j]
			if !a.at.Equal(b.at) {
				return a.at.Before(b.at)
			}
			if a.loc.Path != b.loc.Path {
				return a.loc.Path < b.loc.Path
			}
			return a.loc.Offset < b.loc.Offset
		})
		// The snapshot's topic list plus every membership correction since
		// it, in record order, is the session's true subscription set: a
		// topic unsubscribed after the snapshot must not come back as a
		// phantom upstream subscription, and one re-subscribed must not be
		// dropped.
		members := c.members[:0]
		for _, m := range c.members {
			if !m.at.Before(c.snapAt) {
				members = append(members, m)
			}
		}
		sort.Slice(members, func(i, j int) bool {
			a, b := members[i], members[j]
			if !a.at.Equal(b.at) {
				return a.at.Before(b.at)
			}
			if a.loc.Path != b.loc.Path {
				return a.loc.Path < b.loc.Path
			}
			return a.loc.Offset < b.loc.Offset
		})
		topicSet := make(map[string]struct{}, len(c.topics))
		for _, t := range c.topics {
			topicSet[t] = struct{}{}
		}
		for _, m := range members {
			if m.add {
				topicSet[m.topic] = struct{}{}
			} else {
				delete(topicSet, m.topic)
			}
		}
		sp := SpooledSession{Name: name, Snap: c.snap, SnapAt: c.snapAt, Deltas: make([]spool.Loc, len(live))}
		for i, d := range live {
			sp.Deltas[i] = d.loc
		}
		for t := range topicSet {
			sp.Topics = append(sp.Topics, t)
		}
		sort.Strings(sp.Topics)
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// scheduleCommit arms the worker's next group-commit tick: one spool
// Commit (fsync per policy + deferred memory drops) per interval, plus
// the compaction check.
func (h *Host) scheduleCommit(w *worker) {
	w.wheel.Schedule(h.opts.SpoolCommitEvery, func() {
		if err := w.spool.Commit(); err != nil {
			h.logf("host: worker %d: spool commit: %v", w.id, err)
		}
		h.maybeCompact(w)
		if !h.isClosed() {
			h.scheduleCommit(w)
		}
	})
}

// maybeCompact rewrites the worker's live session chains into fresh
// segments once its spool has grown past the segment threshold. Runs
// inside the commit tick (wheel-serialized with every state transition and
// delta append of this worker's sessions). Only segments referenced by no
// session anywhere are deleted, so chains that still point into this
// directory — another worker's sessions after a resharding restart, or a
// resident session's stale crash-fallback chain — survive untouched.
func (h *Host) maybeCompact(w *worker) {
	st := w.spool.Stats()
	if st.Segments <= h.opts.SpoolCompactSegments || st.Appends == w.lastCompactAppends {
		return
	}

	// Partition: this worker's hibernated sessions get rewritten;
	// everyone else's chain references must be retained wherever they
	// point.
	retained := make(map[string]bool)
	var mine []*Session
	h.mu.Lock()
	for _, s := range h.sessions {
		s.mu.Lock()
		if s.w == w && s.state == stateHibernated {
			mine = append(mine, s)
		} else {
			if !s.snap.IsZero() {
				retained[s.snap.Path] = true
			}
			for _, d := range s.deltas {
				retained[d.Path] = true
			}
		}
		s.mu.Unlock()
	}
	h.mu.Unlock()
	sort.Slice(mine, func(i, j int) bool { return mine[i].name < mine[j].name })

	maxRec := h.opts.SpoolMaxRecordBytes
	type move struct {
		snap   spool.Loc
		deltas []spool.Loc
	}
	moves := make(map[*Session]move)
	err := w.spool.Compact(func(app func(spool.Record) (spool.Loc, error)) error {
		for _, s := range mine {
			s.mu.Lock()
			snapLoc := s.snap
			deltas := append([]spool.Loc(nil), s.deltas...)
			s.mu.Unlock()
			keepOld := func() {
				// Unreadable chain: keep the old segments so nothing that
				// might still decode is destroyed.
				if !snapLoc.IsZero() {
					retained[snapLoc.Path] = true
				}
				for _, d := range deltas {
					retained[d.Path] = true
				}
			}
			rec, err := spool.ReadRecord(snapLoc, maxRec)
			if err != nil {
				h.logf("host: compact worker %d: session %s snapshot %s@%d: %v (kept in place)",
					w.id, s.name, snapLoc.Path, snapLoc.Offset, err)
				keepOld()
				continue
			}
			newSnap, err := app(rec)
			if err != nil {
				return err
			}
			m := move{snap: newSnap}
			for _, loc := range deltas {
				drec, err := spool.ReadRecord(loc, maxRec)
				if err != nil {
					h.logf("host: compact worker %d: session %s delta %s@%d: %v (dropped)",
						w.id, s.name, loc.Path, loc.Offset, err)
					continue
				}
				nloc, err := app(drec)
				if err != nil {
					return err
				}
				m.deltas = append(m.deltas, nloc)
			}
			moves[s] = m
		}
		return nil
	}, func(path string) bool { return retained[path] })
	if err != nil {
		// Append or sync failed before any deletion: the old chains are
		// intact, so dropping the moves keeps every session readable.
		h.logf("host: compact worker %d: %v", w.id, err)
		return
	}
	for s, m := range moves {
		s.mu.Lock()
		// Only rewire sessions still hibernated with the chain we copied;
		// anything that changed state mid-emit keeps its own (newer)
		// chain. (Cannot happen — the wheel serializes us — but cheap.)
		if s.state == stateHibernated {
			s.snap = m.snap
			s.deltas = m.deltas
		}
		s.mu.Unlock()
	}
	w.lastCompactAppends = w.spool.Stats().Appends
	h.logf("host: worker %d compacted: %d sessions rewritten, %d→%d segments",
		w.id, len(moves), st.Segments, w.spool.Stats().Segments)
}
