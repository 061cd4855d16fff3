package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeDump writes traces as one JSONL dump file, with extra raw lines
// appended verbatim.
func writeDump(t *testing.T, name string, traces []NotificationTrace, extra ...string) string {
	t.Helper()
	var b strings.Builder
	for _, nt := range traces {
		line, err := json.Marshal(&nt)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	for _, l := range extra {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func at(ms int) time.Time { return tc0.Add(time.Duration(ms) * time.Millisecond) }

// TestReadDumpsMergesNodeViews: a broker and a proxy dump that share
// trace IDs merge into one timeline per notification, whichever dump
// holds the terminal outcome.
func TestReadDumpsMergesNodeViews(t *testing.T) {
	broker := writeDump(t, "broker.jsonl", []NotificationTrace{
		{TraceID: "n1", Topic: "a", ID: "n1", Origin: "broker", Sampled: true, Events: []Event{
			{At: at(0), Kind: KindPublish, Node: "broker"},
			{At: at(1), Kind: KindRoute, Node: "broker"},
		}},
		{TraceID: "n2", Topic: "a", ID: "n2", Origin: "broker", Sampled: false,
			Outcome: OutcomeDuplicate, Cause: "duplicate id", Events: []Event{
				{At: at(5), Kind: KindPublish, Node: "broker"},
				{At: at(6), Kind: KindDuplicate, Node: "broker"},
			}},
	}, "", "   ")
	proxy := writeDump(t, "proxy.jsonl", []NotificationTrace{
		{TraceID: "n2", Topic: "a", ID: "n2", Sampled: true, Events: []Event{
			{At: at(7), Kind: KindProxyRecv, Node: "proxy"},
		}},
		{TraceID: "n1", Topic: "a", ID: "n1", Outcome: OutcomeWasted, Cause: "expired on device", Events: []Event{
			{At: at(4), Kind: KindExpire, Node: "proxy"},
			{At: at(2), Kind: KindProxyRecv, Node: "proxy"},
			{At: at(3), Kind: KindForward, Node: "proxy"},
		}},
	})

	traces, err := ReadDumps(broker, proxy)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].TraceID != "n1" || traces[1].TraceID != "n2" {
		t.Fatalf("got %d traces %+v, want n1 then n2", len(traces), traces)
	}
	n1, n2 := traces[0], traces[1]
	var kinds []string
	for i, e := range n1.Events {
		kinds = append(kinds, string(e.Kind))
		if i > 0 && e.At.Before(n1.Events[i-1].At) {
			t.Errorf("n1 events out of time order: %v", n1.Events)
		}
	}
	if got := strings.Join(kinds, ","); got != "publish-accept,broker-route,proxy-recv,forward,expire" {
		t.Errorf("n1 merged timeline %s", got)
	}
	if n1.Outcome != OutcomeWasted || n1.Cause != "expired on device" || n1.Origin != "broker" || !n1.Sampled {
		t.Errorf("n1 merged as outcome=%q cause=%q origin=%q sampled=%v", n1.Outcome, n1.Cause, n1.Origin, n1.Sampled)
	}
	if n2.Outcome != OutcomeDuplicate || n2.Cause != "duplicate id" || !n2.Sampled || len(n2.Events) != 3 {
		t.Errorf("n2 merged as outcome=%q cause=%q sampled=%v events=%d", n2.Outcome, n2.Cause, n2.Sampled, len(n2.Events))
	}
}

// TestReadDumpsNamesMalformedLine: a bad line fails the whole read with
// its file and line number.
func TestReadDumpsNamesMalformedLine(t *testing.T) {
	path := writeDump(t, "bad.jsonl", []NotificationTrace{{TraceID: "ok", ID: "ok"}}, "", `{"traceId": "broken"`)
	_, err := ReadDumps(path)
	if err == nil || !strings.Contains(err.Error(), path+":3:") {
		t.Fatalf("ReadDumps(malformed line 3) = %v, want an error naming %s:3", err, path)
	}
}

// TestReadDumpsLongLine: a trace with a long timeline serializes to a
// line over 1 MiB, which still parses.
func TestReadDumpsLongLine(t *testing.T) {
	nt := NotificationTrace{TraceID: "long", ID: "long", Sampled: true}
	for i := 0; len(nt.Events) < 12000; i++ {
		nt.Events = append(nt.Events, Event{At: at(i), Kind: KindForward, Node: "proxy", Cause: strings.Repeat("x", 64)})
	}
	path := writeDump(t, "long.jsonl", []NotificationTrace{nt})
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 1<<20 {
		t.Fatalf("fixture line is not over 1 MiB: %v %v", fi.Size(), err)
	}
	traces, err := ReadDumps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(traces[0].Events) != len(nt.Events) {
		t.Fatalf("long line read back as %d traces", len(traces))
	}
}
