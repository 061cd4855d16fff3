package main

import (
	"bytes"
	"strings"
	"testing"
)

// hasRow reports whether some line of out splits into exactly the given
// whitespace-separated fields.
func hasRow(out string, fields ...string) bool {
	want := strings.Join(fields, " ")
	for _, line := range strings.Split(out, "\n") {
		if strings.Join(strings.Fields(line), " ") == want {
			return true
		}
	}
	return false
}

// TestDoctorTraceReport runs the fixture dump (five traces: two read,
// one each wasted, lost and expired, with hand-set hop timings) through
// the doctor and checks the outcome, attribution and per-hop tables.
func TestDoctorTraceReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"testdata/traces.jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if first, _, _ := strings.Cut(got, "\n"); first != "5 traces (5 head-sampled), 21 events" {
		t.Errorf("summary line %q", first)
	}
	for _, row := range [][]string{
		{"read", "2", "40.0%"},
		{"wasted", "1", "20.0%"},
		{"lost", "1", "20.0%"},
		{"expired", "1", "20.0%"},
		{"1", "expired", "rank-retraction"},
		{"1", "lost", "in", "flight", "across", "a", "reconnect"},
		{"1", "wasted", "expired", "on", "device", "(exp_threshold=30s)"},
		// broker 1,1,1,2,3 ms; proxyQueue 1,2,4; lastHop 1,2,3: each
		// quantile interpolates linearly at q·(n−1).
		{"broker", "5", "1.000", "2.800", "2.960"},
		{"proxyQueue", "3", "2.000", "3.800", "3.960"},
		{"lastHop", "3", "2.000", "2.900", "2.980"},
	} {
		if !hasRow(got, row...) {
			t.Errorf("report lacks row %q:\n%s", strings.Join(row, " "), got)
		}
	}
	if strings.Contains(got, "trace n1") {
		t.Errorf("timelines printed without -timeline:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"-timeline", "-1", "-outcome", "lost", "testdata/traces.jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Count(got, "\ntrace ") != 1 || !strings.Contains(got, "trace n4  topic=news  outcome=lost") {
		t.Errorf("-timeline -1 -outcome lost did not print exactly n4's timeline:\n%s", got)
	}
}
