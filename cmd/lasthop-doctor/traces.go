package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"lasthop/internal/trace"
)

// reportTraces merges the trace dumps and prints their summary, the
// waste/loss attribution, per-hop latency and, with timelines != 0, that
// many per-notification timelines (-1 = all) of the given outcome ("" =
// any).
func reportTraces(w io.Writer, dumps []string, timelines int, outcome string) error {
	traces, err := trace.ReadDumps(dumps...)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no traces in %s", strings.Join(dumps, ", "))
	}

	// One tabwriter aligns each table on its own: the blank line after
	// a table ends its column block.
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	s := trace.Summarize(traces)
	printSummary(tw, s)
	printAttribution(tw, s.Attribution)
	printHopLatency(tw, s.Hops)
	if err := tw.Flush(); err != nil {
		return err
	}

	if timelines != 0 {
		selected := traces
		if outcome != "" {
			selected = nil
			for _, t := range traces {
				if string(t.Outcome) == outcome {
					selected = append(selected, t)
				}
			}
		}
		n := timelines
		if n < 0 || n > len(selected) {
			n = len(selected)
		}
		for i := 0; i < n; i++ {
			printTimeline(w, selected[i])
		}
		if n < len(selected) {
			fmt.Fprintf(w, "… %d more timelines (-timeline -1 prints all)\n", len(selected)-n)
		}
	}
	return nil
}

func printSummary(w io.Writer, s trace.Summary) {
	fmt.Fprintf(w, "%d traces (%d head-sampled), %d events\n\n", s.Traces, s.Sampled, s.Events)
	fmt.Fprintln(w, "OUTCOME\tCOUNT\tSHARE")
	for _, o := range []trace.Outcome{trace.OutcomeRead, trace.OutcomeWasted, trace.OutcomeLost, trace.OutcomeExpired, trace.OutcomeDuplicate} {
		if s.Outcomes[o] == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f%%\n", o, s.Outcomes[o], 100*float64(s.Outcomes[o])/float64(s.Traces))
	}
	if n := s.Outcomes[""]; n > 0 {
		fmt.Fprintf(w, "(incomplete)\t%d\t%.1f%%\n", n, 100*float64(n)/float64(s.Traces))
	}
	fmt.Fprintln(w)
}

// printAttribution prints the waste/loss attribution table: the non-read
// terminals grouped by (outcome, cause).
func printAttribution(w io.Writer, rows []trace.Attribution) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "no waste or loss: every completed trace ended in a read")
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintln(w, "waste/loss attribution:")
	fmt.Fprintln(w, "COUNT\tOUTCOME\tATTRIBUTED TO")
	for _, a := range rows {
		cause := a.Cause
		if cause == "" {
			cause = "(no cause recorded)"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\n", a.Count, a.Outcome, cause)
	}
	fmt.Fprintln(w)
}

func printHopLatency(w io.Writer, hops map[string]trace.HopQuantiles) {
	if len(hops) == 0 {
		return
	}
	fmt.Fprintln(w, "per-hop latency (ms):")
	fmt.Fprintln(w, "HOP\tN\tP50\tP95\tP99")
	for _, name := range trace.HopNames {
		q, ok := hops[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\n", name, q.N, q.P50, q.P95, q.P99)
	}
	fmt.Fprintln(w)
}

func printTimeline(w io.Writer, t trace.NotificationTrace) {
	outcome := string(t.Outcome)
	if outcome == "" {
		outcome = "incomplete"
	}
	fmt.Fprintf(w, "trace %s  topic=%s  outcome=%s\n", t.TraceID, t.Topic, outcome)
	if t.Cause != "" {
		fmt.Fprintf(w, "  cause: %s\n", t.Cause)
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
			parts = append(parts, "cause="+quoteCause(e.Cause))
		}
		fmt.Fprintf(w, "  %+12s  %-18s %s\n", e.At.Sub(start).Round(time.Microsecond), e.Kind, strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
}

// quoteCause quotes a cause when it contains spaces, keeping timelines
// grep-friendly.
func quoteCause(s string) string {
	if strings.ContainsAny(s, " \t") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
