// Command lasthop-broker runs a standalone topic-based pub/sub broker over
// TCP. Publishers, subscribers, and last-hop proxies connect with the wire
// protocol (see internal/wire).
//
// Example:
//
//	lasthop-broker -listen :7470 -obs-addr :9470
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/flight"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-broker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen = flag.String("listen", ":7470", "address to listen on")
		name   = flag.String("name", "broker", "broker node name")

		readTO  = flag.Duration("read-timeout", 0, "max silence tolerated on a client connection (0 = unlimited)")
		writeTO = flag.Duration("write-timeout", 10*time.Second, "max time for one client write (0 = unlimited)")

		flightRing  = flag.Int("flight-ring", flight.DefaultRingEvents, "flight-recorder events retained per subsystem (0 = disable recording)")
		watchdogIvl = flag.Duration("watchdog", 2*time.Second, "stall-watchdog probe interval (0 = disabled)")
		bundleDir   = flag.String("bundle-dir", "lasthop-bundles", "directory for post-mortem dump bundles (watchdog trips, SIGQUIT, /debug/flight/dump)")

		obsAddr     = flag.String("obs-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/traces, and /debug/flight/dump on this address (empty = disabled)")
		traceSample = flag.Float64("trace-sample", 0, "head-sample this fraction of accepted publishes into end-to-end traces (0 = anomalies only)")
		traceRing   = flag.Int("trace-ring", 0, "completed traces retained for /debug/traces (0 = default)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	logf := obs.Logf(logger, "broker")

	flight.Enable(*flightRing)
	broker := pubsub.NewBroker(*name)
	reg := obs.NewRegistry()
	wm := wire.NewMetrics(reg)
	burst.RegisterMetrics(reg)
	broker.RegisterMetrics(reg)
	collector := trace.NewCollector(*name, trace.NewSampler(*traceSample), *traceRing)
	collector.RegisterMetrics(reg)
	broker.SetTracer(collector)

	// Post-mortem dumps: the broker has no workers or spools, so its
	// watchdog covers the shared datapath stalls — a wedged egress
	// flusher and pool drift.
	bundleOpts := func(reason string) flight.BundleOptions {
		return flight.BundleOptions{
			Dir:      *bundleDir,
			Node:     *name,
			Reason:   reason,
			Recorder: flight.Active(),
			Metrics:  reg,
			Traces:   collector,
		}
	}
	stopSig := flight.DumpOnSignal(bundleOpts, logf)
	defer stopSig()
	watchdog := flight.NewWatchdog(*watchdogIvl)
	watchdog.OnTrip(func(trips []flight.Trip) {
		o := bundleOpts("watchdog")
		o.Trips = trips
		path, err := flight.WriteBundle(o)
		if err != nil {
			logf("watchdog tripped, bundle failed: %v", err)
			return
		}
		for _, tr := range trips {
			logf("watchdog tripped: %s (bundle: %s)", tr, path)
		}
	})
	watchdog.Register(wire.FlusherStallProbe(5*time.Second, 1))
	watchdog.Register(burst.DriftProbes(10, 100_000)...)
	if *watchdogIvl > 0 {
		watchdog.Start()
	}
	defer watchdog.Close()
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg,
			obs.Route{Pattern: "/debug/traces", Handler: collector.Handler()},
			obs.Route{Pattern: "/debug/flight/dump", Handler: flight.DumpHandler(bundleOpts)})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		logger.Info("observability endpoint up", "component", "broker", "addr", srv.Addr())
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Info("listening", "component", "broker", "name", *name, "addr", lis.Addr().String())
	srv := wire.NewBrokerServerOpts(broker, wire.ServerOptions{
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		Logf:         logf,
		Metrics:      wm,
	})
	return srv.Serve(lis)
}
