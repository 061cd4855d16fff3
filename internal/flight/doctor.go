package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lasthop/internal/trace"
)

// Bundle is one loaded dump directory: the manifest, the decoded flight
// timeline (sorted), and the traces that were in the collector's
// completed ring or still active at dump time.
type Bundle struct {
	Dir      string
	Manifest Manifest
	Events   []Event
	Traces   []trace.NotificationTrace
}

// LoadBundle reads one bundle directory. Missing optional files
// (traces.jsonl on a broker bundle) are not errors; a missing or
// unparsable manifest is — the bundle was torn mid-dump.
func LoadBundle(dir string) (*Bundle, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("doctor: %s: %w", dir, err)
	}
	b := &Bundle{Dir: dir}
	if err := json.Unmarshal(raw, &b.Manifest); err != nil {
		return nil, fmt.Errorf("doctor: %s: manifest: %w", dir, err)
	}
	if f, err := os.Open(filepath.Join(dir, "flight.jsonl")); err == nil {
		b.Events, err = readEventsJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("doctor: %s: flight.jsonl: %w", dir, err)
		}
	}
	if b.Traces, err = trace.ReadDumps(filepath.Join(dir, "traces.jsonl")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("doctor: %s: %w", dir, err)
	}
	sort.Slice(b.Events, func(i, j int) bool { return b.Events[i].At < b.Events[j].At })
	return b, nil
}

// FindBundles returns every directory under root that holds a manifest,
// newest first (by manifest timestamp). root itself may be a bundle.
func FindBundles(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if IsBundle(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// IsBundle reports whether dir holds a bundle manifest.
func IsBundle(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

func readEventsJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var j eventJSON
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, err
		}
		sub, _ := SubsystemByName(j.Sub)
		kind, _ := KindByName(j.Kind)
		out = append(out, Event{At: j.At, Sub: sub, Kind: kind, Worker: j.Worker, A: j.A, B: j.B})
	}
	return out, sc.Err()
}

// Diagnosis names one stalled component on one node, with the evidence
// window (silence between the component's last flight event and the
// probe trip) and the trace outcomes correlated with the stall.
type Diagnosis struct {
	Node      string
	Component string
	Probe     string
	Evidence  string
	// Window is the silent gap: from the component's last recorded
	// flight event (zero when it never recorded) to the trip.
	WindowFrom time.Time
	WindowTo   time.Time
	// Events counts the component's flight events in the bundle.
	Events int
	// Lost and Wasted count correlated trace outcomes in the bundle.
	Lost, Wasted int
}

// componentSubs maps a probe's component label onto the flight
// subsystems whose silence is its evidence.
func componentSubs(component string) []Subsystem {
	switch component {
	case "worker":
		return []Subsystem{SubWorker, SubWheel}
	case "wheel":
		return []Subsystem{SubWheel, SubWorker}
	case "spool":
		return []Subsystem{SubSpool}
	case "flush":
		return []Subsystem{SubFlush}
	case "pool":
		return []Subsystem{SubPool}
	case "mux":
		return []Subsystem{SubMux}
	case "lifecycle":
		return []Subsystem{SubLifecycle}
	case "core":
		return []Subsystem{SubCore}
	default:
		return nil
	}
}

// Diagnose cross-references every bundle's watchdog trips with its
// flight timeline and trace outcomes. One Diagnosis per (node,
// component); repeated trips of the same component collapse into the
// earliest window.
func Diagnose(bundles []*Bundle) []Diagnosis {
	var out []Diagnosis
	for _, b := range bundles {
		outcomes := trace.Summarize(b.Traces).Outcomes
		lost, wasted := outcomes[trace.OutcomeLost], outcomes[trace.OutcomeWasted]
		seen := make(map[string]int) // component → index into out
		for _, trip := range b.Manifest.Trips {
			subs := componentSubs(trip.Component)
			var lastAt int64
			events := 0
			for _, e := range b.Events {
				for _, s := range subs {
					if e.Sub == s {
						events++
						// KindStall is the watchdog's own marker, not
						// component activity.
						if e.Kind != KindStall && e.At > lastAt && e.At <= trip.At.UnixNano() {
							lastAt = e.At
						}
					}
				}
			}
			d := Diagnosis{
				Node:      b.Manifest.Node,
				Component: trip.Component,
				Probe:     trip.Probe,
				Evidence:  trip.Error,
				WindowTo:  trip.At,
				Events:    events,
				Lost:      lost,
				Wasted:    wasted,
			}
			if lastAt != 0 {
				d.WindowFrom = time.Unix(0, lastAt)
			}
			key := b.Manifest.Node + "/" + trip.Component
			if i, ok := seen[key]; ok {
				if d.WindowTo.Before(out[i].WindowTo) {
					out[i].WindowTo = d.WindowTo
					out[i].Probe, out[i].Evidence = d.Probe, d.Evidence
				}
				continue
			}
			seen[key] = len(out)
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// WriteDiagnosisTable renders the diagnosis as an aligned text table.
func WriteDiagnosisTable(w io.Writer, ds []Diagnosis) {
	if len(ds) == 0 {
		fmt.Fprintln(w, "no stalls recorded: every loaded bundle is trip-free")
		return
	}
	fmt.Fprintf(w, "%-12s %-10s %-22s %-14s %6s %6s %6s  %s\n",
		"NODE", "COMPONENT", "PROBE", "SILENT-FOR", "EVENTS", "LOST", "WASTED", "EVIDENCE")
	for _, d := range ds {
		silent := "unknown"
		if !d.WindowFrom.IsZero() {
			silent = d.WindowTo.Sub(d.WindowFrom).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-12s %-10s %-22s %-14s %6d %6d %6d  %s\n",
			d.Node, d.Component, d.Probe, silent, d.Events, d.Lost, d.Wasted, d.Evidence)
	}
}

// WriteTimeline renders the merged multi-bundle flight timeline (tail
// limits to the last n events; n <= 0 keeps everything), each line
// prefixed with its node.
func WriteTimeline(w io.Writer, bundles []*Bundle, n int) {
	type entry struct {
		node string
		e    Event
	}
	var all []entry
	for _, b := range bundles {
		for _, e := range b.Events {
			all = append(all, entry{b.Manifest.Node, e})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.At < all[j].e.At })
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	for _, en := range all {
		e := en.e
		var detail strings.Builder
		fmt.Fprintf(&detail, "a=%d b=%d", e.A, e.B)
		fmt.Fprintf(w, "%s %-12s %-10s %-14s w=%-3d %s\n",
			e.Time().UTC().Format("15:04:05.000000"), en.node, e.Sub, e.Kind, e.Worker, detail.String())
	}
}
