package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// BundleOptions says what goes into a dump bundle. Nil fields are
// skipped, so a broker (no trace collector) and a proxy produce the
// same bundle shape minus the missing files.
type BundleOptions struct {
	// Dir is the parent directory; the bundle becomes a fresh
	// subdirectory under it. Empty means the OS temp dir.
	Dir string
	// Node names the process in the manifest and the bundle dir.
	Node string
	// Reason is why the dump fired: "watchdog", "sigquit", "http",
	// "scenario-failure", …
	Reason string
	// Trips carries the watchdog evidence (may be nil for manual dumps).
	Trips []Trip
	// Recorder is the flight recorder to decode; nil skips flight.jsonl.
	Recorder *Recorder
	// Metrics is scraped into metrics.prom; nil skips it (obs.Registry
	// satisfies it).
	Metrics interface{ WriteText(w io.Writer) error }
	// Traces dumps the collector's completed ring into traces.jsonl;
	// nil skips it (trace.Collector satisfies it).
	Traces interface{ WriteJSONL(w io.Writer) error }
	// SkipPprof drops the goroutine and heap profiles (tests).
	SkipPprof bool
}

// Manifest is the bundle's index, written last so a complete
// manifest.json marks a complete bundle.
type Manifest struct {
	Node      string    `json:"node"`
	Reason    string    `json:"reason"`
	WrittenAt time.Time `json:"written_at"`
	Trips     []Trip    `json:"trips,omitempty"`
	Files     []string  `json:"files"`
}

const manifestFile = "manifest.json"

// WriteBundle dumps a post-mortem bundle and returns its directory:
//
//	flight.jsonl   flight recorder timeline, one event per line
//	metrics.prom   metrics snapshot (Prometheus text)
//	goroutines.txt full goroutine stacks (pprof debug=2)
//	heap.pprof     heap profile
//	traces.jsonl   trace collector's completed ring
//	manifest.json  node, reason, watchdog trips, file index
//
// Partial failures skip the file and keep going — a dump fired because
// the node is sick must salvage what it can.
func WriteBundle(o BundleOptions) (string, error) {
	parent := o.Dir
	if parent == "" {
		parent = os.TempDir()
	}
	node := sanitizeNode(o.Node)
	dir := filepath.Join(parent, fmt.Sprintf("flight-%s-%d", node, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: bundle dir: %w", err)
	}
	var files []string
	add := func(name string, write func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return
		}
		werr := write(f)
		if cerr := f.Close(); werr == nil && cerr == nil {
			files = append(files, name)
		}
	}

	if o.Recorder != nil {
		add("flight.jsonl", func(f *os.File) error {
			return writeEventsJSONL(f, o.Recorder.Snapshot())
		})
	}
	if o.Metrics != nil {
		add("metrics.prom", func(f *os.File) error { return o.Metrics.WriteText(f) })
	}
	if !o.SkipPprof {
		add("goroutines.txt", func(f *os.File) error {
			return pprof.Lookup("goroutine").WriteTo(f, 2)
		})
		add("heap.pprof", func(f *os.File) error {
			return pprof.Lookup("heap").WriteTo(f, 0)
		})
	}
	if o.Traces != nil {
		add("traces.jsonl", func(f *os.File) error { return o.Traces.WriteJSONL(f) })
	}

	m := Manifest{Node: o.Node, Reason: o.Reason, WrittenAt: time.Now(), Trips: o.Trips, Files: files}
	mf, err := os.Create(filepath.Join(dir, manifestFile))
	if err != nil {
		return dir, fmt.Errorf("flight: manifest: %w", err)
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		mf.Close()
		return dir, fmt.Errorf("flight: manifest: %w", err)
	}
	return dir, mf.Close()
}

// eventJSON is the on-disk shape of one flight event; subsystem and kind
// travel as their labels so bundles outlive enum renumbering.
type eventJSON struct {
	At     int64  `json:"at"`
	Time   string `json:"time"`
	Sub    string `json:"sub"`
	Kind   string `json:"kind"`
	Worker int32  `json:"worker"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

func writeEventsJSONL(f *os.File, events []Event) error {
	enc := json.NewEncoder(f)
	for _, e := range events {
		j := eventJSON{
			At:     e.At,
			Time:   e.Time().UTC().Format(time.RFC3339Nano),
			Sub:    e.Sub.String(),
			Kind:   e.Kind.String(),
			Worker: e.Worker,
			A:      e.A,
			B:      e.B,
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

func sanitizeNode(node string) string {
	if node == "" {
		return "node"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, node)
}

// DumpHandler serves on-demand dumps (mounted at /debug/flight/dump):
// any request writes a bundle and answers with its path as JSON.
func DumpHandler(opts func(reason string) BundleOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path, err := WriteBundle(opts("http"))
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "bundle": path})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"bundle": path})
	})
}

// DumpOnSignal dumps a bundle whenever the process receives SIGQUIT and
// keeps running (the kill -QUIT idiom for a live post-mortem). The
// returned stop function releases the handler goroutine.
func DumpOnSignal(opts func(reason string) BundleOptions, logf func(format string, args ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				path, err := WriteBundle(opts("sigquit"))
				if err != nil {
					logf("flight: sigquit dump: %v", err)
				} else {
					logf("flight: sigquit dump written to %s", path)
				}
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
