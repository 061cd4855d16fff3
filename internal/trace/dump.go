package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// ReadDumps reads JSONL trace dumps (the format WriteJSONL writes, one
// NotificationTrace per line) and merges traces that share a trace ID:
// dumps from different nodes each hold that node's view of the timeline.
// A merged trace holds every dump's events in time order, takes its
// outcome and cause from the first dump that completed it, and is
// sampled when any dump sampled it. Traces come back ordered by their
// first event. Blank lines are skipped; a malformed line fails the read
// with its file and line number.
func ReadDumps(paths ...string) ([]NotificationTrace, error) {
	byID := make(map[string]*NotificationTrace)
	var order []string
	merge := func(t NotificationTrace) {
		have, ok := byID[t.TraceID]
		if !ok {
			byID[t.TraceID] = &t
			order = append(order, t.TraceID)
			return
		}
		have.Events = append(have.Events, t.Events...)
		have.Sampled = have.Sampled || t.Sampled
		if have.Outcome == "" {
			have.Outcome, have.Cause = t.Outcome, t.Cause
		}
		if have.Origin == "" {
			have.Origin = t.Origin
		}
	}
	for _, path := range paths {
		if err := readDump(path, merge); err != nil {
			return nil, err
		}
	}
	out := make([]NotificationTrace, 0, len(order))
	for _, id := range order {
		t := byID[id]
		sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].At.Before(t.Events[j].At) })
		out = append(out, *t)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start().Before(out[j].Start()) })
	return out, nil
}

// readDump decodes one dump file line by line into fn.
func readDump(path string, fn func(NotificationTrace)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var t NotificationTrace
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		fn(t)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// HopQuantiles summarizes one segment of the delivery path across all
// traces that observed it, in milliseconds.
type HopQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	N   int     `json:"n"`
}

// HopNames lists the segments of Breakdown in delivery-path order, as
// Summary.Hops keys them.
var HopNames = []string{"broker", "proxyQueue", "lastHop"}

// Attribution counts the traces that ended in one non-read outcome for
// one cause: a row of the waste/loss attribution table.
type Attribution struct {
	Outcome Outcome
	Cause   string
	Count   int
}

// Summary reduces a trace set to what an analysis reports about it.
type Summary struct {
	// Traces, Sampled and Events count the traces, the head-sampled
	// ones among them, and their events.
	Traces, Sampled, Events int
	// Outcomes tallies terminal outcomes; the "" key counts traces that
	// never completed.
	Outcomes map[Outcome]int
	// Attribution groups every completed non-read trace by (outcome,
	// cause), most frequent first.
	Attribution []Attribution
	// Hops holds the latency quantiles of every Breakdown segment that
	// at least one trace observed, keyed by HopNames.
	Hops map[string]HopQuantiles
}

// Summarize computes the Summary of a trace set.
func Summarize(traces []NotificationTrace) Summary {
	s := Summary{Traces: len(traces), Outcomes: make(map[Outcome]int)}
	attr := make(map[Attribution]int)
	segs := make(map[string][]time.Duration)
	for i := range traces {
		t := &traces[i]
		s.Events += len(t.Events)
		if t.Sampled {
			s.Sampled++
		}
		s.Outcomes[t.Outcome]++
		if t.Outcome != "" && t.Outcome != OutcomeRead {
			attr[Attribution{Outcome: t.Outcome, Cause: t.Cause}]++
		}
		b := t.LatencyBreakdown()
		for j, d := range []time.Duration{b.Broker, b.ProxyQueue, b.LastHop} {
			if d >= 0 {
				segs[HopNames[j]] = append(segs[HopNames[j]], d)
			}
		}
	}
	for a, n := range attr {
		a.Count = n
		s.Attribution = append(s.Attribution, a)
	}
	sort.Slice(s.Attribution, func(i, j int) bool {
		a, b := s.Attribution[i], s.Attribution[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Outcome != b.Outcome {
			return a.Outcome < b.Outcome
		}
		return a.Cause < b.Cause
	})
	s.Hops = make(map[string]HopQuantiles, len(segs))
	for name, ds := range segs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		s.Hops[name] = HopQuantiles{
			P50: msQuantile(ds, 0.50),
			P95: msQuantile(ds, 0.95),
			P99: msQuantile(ds, 0.99),
			N:   len(ds),
		}
	}
	return s
}

// msQuantile interpolates a quantile from a sorted slice of durations.
func msQuantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1]) / float64(time.Millisecond)
	}
	frac := pos - float64(i)
	lo, hi := float64(sorted[i]), float64(sorted[i+1])
	return (lo + (hi-lo)*frac) / float64(time.Millisecond)
}
