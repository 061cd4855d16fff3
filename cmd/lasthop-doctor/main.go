// Command lasthop-doctor reads what a last-hop deployment leaves on disk
// and turns it into a diagnosis. Each path argument is read as what it
// is:
//
//   - A directory holding a bundle manifest is a post-mortem flight
//     bundle (from a stall watchdog, a SIGQUIT or /debug/flight/dump).
//     Bundles from several nodes merge on wall-clock time; each watchdog
//     trip is cross-referenced with the component's flight events and the
//     bundled trace outcomes, naming the stalled component, how long it
//     was silent, and how many traces were lost or wasted meanwhile.
//   - Any other directory is a host spool (lasthop-proxy's -spool-dir, or
//     one worker-N subdirectory). Every record is checksum-verified, then
//     the doctor lists the sessions a host restarted on it would restore,
//     with their topics and delta backlog.
//   - A regular file is a trace dump (lasthop-loadgen -trace-out, or
//     /debug/traces?format=jsonl). Dumps from several nodes merge by trace
//     ID into one report: the outcome tally, the queue decision (and the
//     tuner values in effect) behind each wasted or lost notification,
//     and per-hop latency.
//
// Examples:
//
//	lasthop-doctor -scan lasthop-bundles -timeline 40
//	lasthop-doctor /var/lib/lasthop/spool
//	lasthop-doctor -timeline 3 broker.jsonl proxy.jsonl
//	lasthop-doctor -outcome wasted -timeline -1 traces.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lasthop/internal/flight"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "lasthop-doctor:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("lasthop-doctor", flag.ContinueOnError)
	var (
		scan     = fl.String("scan", "", "also scan this directory tree for bundles")
		timeline = fl.Int("timeline", 0, "also print the last N merged flight events of the bundles and the first N notification timelines of the trace dumps (-1 = all)")
		outcome  = fl.String("outcome", "", "restrict notification timelines to one outcome: read, wasted, lost, expired, or duplicate")
	)
	fl.Usage = func() {
		fmt.Fprintf(fl.Output(),
			"usage: lasthop-doctor [flags] <bundle-dir | spool-dir | trace-dump> ...\n\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return err
	}

	var bundleDirs, spoolDirs, dumps []string
	if *scan != "" {
		found, err := flight.FindBundles(*scan)
		if err != nil {
			return err
		}
		bundleDirs = append(bundleDirs, found...)
	}
	for _, path := range fl.Args() {
		fi, err := os.Stat(path)
		switch {
		case err != nil:
			return err
		case !fi.IsDir():
			dumps = append(dumps, path)
		case flight.IsBundle(path):
			bundleDirs = append(bundleDirs, path)
		default:
			spoolDirs = append(spoolDirs, path)
		}
	}
	if len(bundleDirs)+len(spoolDirs)+len(dumps) == 0 {
		fl.Usage()
		return errors.New("nothing to read: pass bundle or spool directories or trace dumps, or -scan a parent")
	}

	if len(dumps) > 0 {
		if err := reportTraces(w, dumps, *timeline, *outcome); err != nil {
			return err
		}
	}
	if len(bundleDirs) > 0 {
		if err := diagnoseBundles(w, bundleDirs, *timeline); err != nil {
			return err
		}
	}
	for _, dir := range spoolDirs {
		if err := listSpool(w, dir); err != nil {
			return err
		}
	}
	return nil
}

func diagnoseBundles(w io.Writer, dirs []string, timeline int) error {
	var bundles []*flight.Bundle
	for _, dir := range dirs {
		b, err := flight.LoadBundle(dir)
		if err != nil {
			return fmt.Errorf("load %s: %w", dir, err)
		}
		bundles = append(bundles, b)
		fmt.Fprintf(w, "loaded %s: node=%s reason=%s trips=%d events=%d traces=%d\n",
			dir, b.Manifest.Node, b.Manifest.Reason, len(b.Manifest.Trips),
			len(b.Events), len(b.Traces))
	}
	fmt.Fprintln(w)

	flight.WriteDiagnosisTable(w, flight.Diagnose(bundles))

	if timeline != 0 {
		fmt.Fprintln(w)
		flight.WriteTimeline(w, bundles, timeline)
	}
	return nil
}
