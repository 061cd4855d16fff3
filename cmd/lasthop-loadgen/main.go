// Command lasthop-loadgen measures end-to-end notification throughput
// through a real broker → proxy → device topology: P publisher
// connections push a configurable volume through an in-process broker
// server, last-hop proxies forward across TCP — one per device, or a
// single multi-tenant host carrying every session — and the run reports
// publish and delivery rates as JSON.
//
// Examples:
//
//	lasthop-loadgen -publishers 8 -devices 16 -n 20000
//	lasthop-loadgen -devices 4 -on-demand -payload 512 -out run.json
//	lasthop-loadgen -multi-tenant -devices 1000 -topics 100 -n 50000
//
// With -scenario the run executes one entry of the regression scenario
// atlas (or all of them) instead of a throughput sweep: a phase-scripted
// workload with faultnet-injected pathologies, traced at 100% and judged
// against the scenario's outcome budget. The process exits non-zero when
// any verdict fails, so scripts/check_scenarios.sh can gate CI on it.
//
//	lasthop-loadgen -list-scenarios
//	lasthop-loadgen -scenario flash-crowd
//	lasthop-loadgen -scenario kill-restart -scenario-scale 50
//	lasthop-loadgen -scenario all -scenario-scale 4 -out verdicts.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lasthop/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		publishers = flag.Int("publishers", 4, "concurrent publisher connections")
		devices    = flag.Int("devices", 4, "device connections (one proxy each)")
		topics     = flag.Int("topics", 0, "distinct topics (0 = one per device)")
		count      = flag.Int("n", 10000, "total notifications to publish")
		pubBatch   = flag.Int("publish-batch", 0, "notifications each publisher pipelines per batched round trip (0 = default 16, 1 = unbatched)")
		pubWindow  = flag.Int("publish-window", 0, "batched round trips each publisher keeps in flight concurrently (0 = default 4, 1 = ack-serialized)")
		histLimit  = flag.Int("history-limit", 0, "per-subscription retained history bound; delivered notifications stay pooled until evicted (0 = core default 131072, negative = unbounded)")
		payload    = flag.Int("payload", 128, "payload bytes per notification")
		onDemand   = flag.Bool("on-demand", false, "consume with READ requests instead of on-line pushes")
		multi      = flag.Bool("multi-tenant", false, "run every device against one shared host instead of one proxy per device")
		hostWk     = flag.Int("host-workers", 0, "host worker count in multi-tenant mode (0 = GOMAXPROCS)")
		spoolDir   = flag.String("spool-dir", "", "hibernation spool directory for the multi-tenant host (empty = hibernation off)")
		hibAfter   = flag.Duration("hibernate-after", 0, "spool disconnected sessions after this long (0 = default)")
		commitEv   = flag.Duration("spool-commit-every", 0, "spool group-commit interval (0 = default)")
		spoolFsync = flag.String("spool-fsync", "", "spool fsync policy: always, commit, or never (empty = commit)")
		timeout    = flag.Duration("timeout", time.Minute, "abort the run after this long")
		out        = flag.String("out", "", "write the JSON report here (default stdout)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /healthz, /debug/pprof, and /debug/traces for the whole topology (empty = disabled)")
		linger     = flag.Duration("linger", 0, "keep the topology and obs endpoint alive this long after the run")

		traceSample = flag.Float64("trace-sample", 0, "head-sample this fraction of notifications into end-to-end traces (0 = disabled)")
		traceOut    = flag.String("trace-out", "", "write the completed traces as JSONL here (for lasthop-doctor; requires -trace-sample > 0)")

		scenario  = flag.String("scenario", "", "run this atlas scenario instead of a throughput sweep (\"all\" runs the whole atlas; see -list-scenarios)")
		scScale   = flag.Float64("scenario-scale", 1, "multiply the scenario's device population (topics and publish volumes stay)")
		listScens = flag.Bool("list-scenarios", false, "list the scenario atlas and exit")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *listScens {
		for _, sc := range loadgen.Atlas() {
			fmt.Printf("%-16s %s\n%-16s   failure mode: %s\n", sc.Name, sc.Description, "", sc.FailureMode)
		}
		return nil
	}
	if *scenario != "" {
		return runScenarios(*scenario, *scScale, *timeout, *out, logf)
	}
	cfg := loadgen.Config{
		Publishers:       *publishers,
		Devices:          *devices,
		Topics:           *topics,
		Notifications:    *count,
		PublishBatch:     *pubBatch,
		PublishWindow:    *pubWindow,
		HistoryLimit:     *histLimit,
		PayloadBytes:     *payload,
		OnDemand:         *onDemand,
		MultiTenant:      *multi,
		HostWorkers:      *hostWk,
		SpoolDir:         *spoolDir,
		HibernateAfter:   *hibAfter,
		SpoolCommitEvery: *commitEv,
		SpoolFsync:       *spoolFsync,
		ObsAddr:          *obsAddr,
		Linger:           *linger,
		Timeout:          *timeout,
		Logf:             logf,
		TraceSample:      *traceSample,
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	if *traceOut != "" && rep.Collector != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := rep.Collector.WriteJSONL(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logf("loadgen: trace dump written to %s", *traceOut)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// runScenarios executes one atlas entry ("all" = every entry in order),
// writes the verdict-bearing reports as JSON, and fails the process when
// any verdict does.
func runScenarios(name string, scale float64, timeout time.Duration, out string, logf func(string, ...any)) error {
	var scenarios []loadgen.Scenario
	if name == "all" {
		scenarios = loadgen.Atlas()
	} else {
		sc, err := loadgen.FindScenario(name)
		if err != nil {
			return err
		}
		scenarios = []loadgen.Scenario{sc}
	}
	var reports []*loadgen.Report
	failed := 0
	for _, sc := range scenarios {
		rep, err := loadgen.RunScenario(sc, loadgen.ScenarioOptions{
			Scale:     scale,
			Timeout:   timeout,
			Logf:      logf,
			BundleDir: os.Getenv("LASTHOP_BUNDLE_DIR"),
		})
		if err != nil {
			return err // names the scenario already
		}
		if !rep.Verdict.Pass {
			failed++
			for _, f := range rep.Verdict.Failures {
				fmt.Fprintf(os.Stderr, "lasthop-loadgen: scenario %s: %s\n", sc.Name, f)
			}
		}
		reports = append(reports, rep)
	}
	var doc any = reports
	if len(reports) == 1 {
		doc = reports[0]
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario verdicts failed", failed, len(scenarios))
	}
	return nil
}
