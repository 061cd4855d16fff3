// Command lasthop-trace analyzes per-notification trace dumps (the JSONL
// written by `lasthop-loadgen -trace-out` or fetched from a daemon's
// /debug/traces?format=jsonl). It merges dumps from several nodes by trace
// ID, prints per-notification timelines, and tabulates where waste and
// loss came from: every terminal outcome with the queue decision — and the
// tuner values in effect — that caused it.
//
// Examples:
//
//	lasthop-trace traces.jsonl
//	lasthop-trace -timelines 3 broker.jsonl proxy.jsonl
//	lasthop-trace -outcome wasted traces.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"lasthop/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		timelines = flag.Int("timelines", 5, "print this many per-notification timelines (0 = none, -1 = all)")
		outcome   = flag.String("outcome", "", "restrict timelines to one outcome: read, wasted, lost, expired, or duplicate")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: lasthop-trace [-timelines N] [-outcome read|wasted|lost|expired|duplicate] dump.jsonl [more.jsonl ...]")
	}

	traces, err := loadDumps(flag.Args())
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no traces in %s", strings.Join(flag.Args(), ", "))
	}

	printSummary(traces)
	printAttribution(traces)
	printHopLatency(traces)

	if *timelines != 0 {
		selected := traces
		if *outcome != "" {
			selected = nil
			for _, t := range traces {
				if string(t.Outcome) == *outcome {
					selected = append(selected, t)
				}
			}
		}
		n := *timelines
		if n < 0 || n > len(selected) {
			n = len(selected)
		}
		for i := 0; i < n; i++ {
			printTimeline(selected[i])
		}
		if n < len(selected) {
			fmt.Printf("… %d more timelines (-timelines -1 prints all)\n", len(selected)-n)
		}
	}
	return nil
}

// loadDumps reads every file and merges traces that share a trace ID —
// dumps from different nodes each hold that node's view of the timeline.
func loadDumps(paths []string) ([]trace.NotificationTrace, error) {
	byID := make(map[string]*trace.NotificationTrace)
	var order []string
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		line := 0
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			var t trace.NotificationTrace
			if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			if have, ok := byID[t.TraceID]; ok {
				have.Events = append(have.Events, t.Events...)
				have.Sampled = have.Sampled || t.Sampled
				if have.Outcome == "" {
					have.Outcome, have.Cause = t.Outcome, t.Cause
				}
				if have.Origin == "" {
					have.Origin = t.Origin
				}
			} else {
				cp := t
				byID[t.TraceID] = &cp
				order = append(order, t.TraceID)
			}
		}
		if err := sc.Err(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		_ = f.Close()
	}
	out := make([]trace.NotificationTrace, 0, len(order))
	for _, id := range order {
		t := byID[id]
		sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].At.Before(t.Events[j].At) })
		out = append(out, *t)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start().Before(out[j].Start()) })
	return out, nil
}

func printSummary(traces []trace.NotificationTrace) {
	events := 0
	sampled := 0
	counts := map[trace.Outcome]int{}
	for i := range traces {
		events += len(traces[i].Events)
		if traces[i].Sampled {
			sampled++
		}
		counts[traces[i].Outcome]++
	}
	fmt.Printf("%d traces (%d head-sampled), %d events\n\n", len(traces), sampled, events)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "OUTCOME\tCOUNT\tSHARE")
	for _, o := range []trace.Outcome{trace.OutcomeRead, trace.OutcomeWasted, trace.OutcomeLost, trace.OutcomeExpired, trace.OutcomeDuplicate} {
		if counts[o] == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\n", o, counts[o], 100*float64(counts[o])/float64(len(traces)))
	}
	if n := counts[""]; n > 0 {
		fmt.Fprintf(tw, "(incomplete)\t%d\t%.1f%%\n", n, 100*float64(n)/float64(len(traces)))
	}
	_ = tw.Flush()
	fmt.Println()
}

// printAttribution groups the non-read terminals by (outcome, cause): the
// waste/loss attribution table.
func printAttribution(traces []trace.NotificationTrace) {
	type key struct {
		outcome trace.Outcome
		cause   string
	}
	counts := map[key]int{}
	for i := range traces {
		t := &traces[i]
		if t.Outcome == "" || t.Outcome == trace.OutcomeRead {
			continue
		}
		counts[key{t.Outcome, t.Cause}]++
	}
	if len(counts) == 0 {
		fmt.Println("no waste or loss: every completed trace ended in a read")
		fmt.Println()
		return
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].outcome != keys[j].outcome {
			return keys[i].outcome < keys[j].outcome
		}
		return keys[i].cause < keys[j].cause
	})
	fmt.Println("waste/loss attribution:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "COUNT\tOUTCOME\tATTRIBUTED TO")
	for _, k := range keys {
		cause := k.cause
		if cause == "" {
			cause = "(no cause recorded)"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\n", counts[k], k.outcome, cause)
	}
	_ = tw.Flush()
	fmt.Println()
}

func printHopLatency(traces []trace.NotificationTrace) {
	segs := map[string][]time.Duration{}
	segOrder := []string{"broker", "proxyQueue", "lastHop"}
	for i := range traces {
		b := traces[i].LatencyBreakdown()
		for name, d := range map[string]time.Duration{
			"broker":     b.Broker,
			"proxyQueue": b.ProxyQueue,
			"lastHop":    b.LastHop,
		} {
			if d >= 0 {
				segs[name] = append(segs[name], d)
			}
		}
	}
	if len(segs) == 0 {
		return
	}
	fmt.Println("per-hop latency (ms):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "HOP\tN\tP50\tP95\tP99")
	for _, name := range segOrder {
		ds := segs[name]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\n", name, len(ds),
			quantileMs(ds, 0.50), quantileMs(ds, 0.95), quantileMs(ds, 0.99))
	}
	_ = tw.Flush()
	fmt.Println()
}

func quantileMs(sorted []time.Duration, q float64) float64 {
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

func printTimeline(t trace.NotificationTrace) {
	outcome := string(t.Outcome)
	if outcome == "" {
		outcome = "incomplete"
	}
	fmt.Printf("trace %s  topic=%s  outcome=%s\n", t.TraceID, t.Topic, outcome)
	if t.Cause != "" {
		fmt.Printf("  cause: %s\n", t.Cause)
	}
	start := t.Start()
	for _, e := range t.Events {
		var parts []string
		if e.Node != "" {
			parts = append(parts, "node="+e.Node)
		}
		if e.Queue != "" {
			parts = append(parts, "queue="+e.Queue)
		}
		if e.Limit != 0 {
			parts = append(parts, fmt.Sprintf("prefetch_limit=%d", e.Limit))
		}
		if e.ThresholdS != 0 {
			parts = append(parts, fmt.Sprintf("exp_threshold=%.3gs", e.ThresholdS))
		}
		if e.DelayS != 0 {
			parts = append(parts, fmt.Sprintf("delay=%.3gs", e.DelayS))
		}
		if e.Count != 0 {
			parts = append(parts, fmt.Sprintf("count=%d", e.Count))
		}
		if e.Cause != "" {
			parts = append(parts, "cause="+strconv(e.Cause))
		}
		fmt.Printf("  %+12s  %-18s %s\n", e.At.Sub(start).Round(time.Microsecond), e.Kind, strings.Join(parts, " "))
	}
	fmt.Println()
}

// strconv quotes a cause when it contains spaces, keeping timelines
// grep-friendly.
func strconv(s string) string {
	if strings.ContainsAny(s, " \t") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
