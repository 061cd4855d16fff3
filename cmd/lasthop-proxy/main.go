// Command lasthop-proxy runs the last-hop proxy as a network service: it
// subscribes upstream to a broker on behalf of one mobile device and
// accepts the device's connection downstream. While the device is
// disconnected the proxy spools notifications exactly as during a
// simulated network outage.
//
// With -multi-tenant it instead runs a proxy host serving any number of
// devices on one listener: sessions shard across -workers event-loop
// workers (each with its own timing wheel) and all upstream traffic
// shares one multiplexed broker connection. With -spool-dir the host
// hibernates disconnected sessions onto a checksummed write-ahead spool
// and recovers every spooled session on restart, even after SIGKILL.
//
// Examples:
//
//	lasthop-proxy -broker localhost:7470 -listen :7471 -name alice-proxy -obs-addr :9471
//	lasthop-proxy -multi-tenant -broker localhost:7470 -listen :7471 -name edge-host
//	lasthop-proxy -multi-tenant -spool-dir /var/lib/lasthop/spool -hibernate-after 30s -name edge-host
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/flight"
	"lasthop/internal/host"
	"lasthop/internal/metrics"
	"lasthop/internal/obs"
	"lasthop/internal/retry"
	"lasthop/internal/spool"
	"lasthop/internal/trace"
	"lasthop/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		broker       = flag.String("broker", "localhost:7470", "upstream broker address")
		listen       = flag.String("listen", ":7471", "device-facing listen address")
		name         = flag.String("name", "proxy", "proxy (subscriber) name at the broker")
		journalPath  = flag.String("journal", "", "journal file for durable proxy state (empty = volatile)")
		reconnect    = flag.Bool("reconnect", true, "reconnect to the broker with backoff when the link dies")
		backoffInit  = flag.Duration("backoff-initial", 100*time.Millisecond, "initial broker reconnect backoff")
		backoffMax   = flag.Duration("backoff-max", 15*time.Second, "maximum broker reconnect backoff")
		heartbeat    = flag.Duration("heartbeat", 5*time.Second, "broker heartbeat interval (0 = disabled)")
		devReadTO    = flag.Duration("device-read-timeout", 0, "max silence tolerated on the device connection (0 = unlimited)")
		devWriteTO   = flag.Duration("device-write-timeout", 10*time.Second, "max time for one write to the device (0 = unlimited)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "max time for one write to the broker (0 = unlimited)")
		multi        = flag.Bool("multi-tenant", false, "serve many device sessions as one proxy host instead of a single-device proxy")
		workers      = flag.Int("workers", 0, "multi-tenant event-loop workers (0 = GOMAXPROCS)")
		wheelTick    = flag.Duration("wheel-tick", 10*time.Millisecond, "multi-tenant timing-wheel resolution")
		spoolDir     = flag.String("spool-dir", "", "multi-tenant hibernation spool directory: disconnected sessions serialize here and survive kill/restart (empty = sessions stay in memory)")
		hibAfter     = flag.Duration("hibernate-after", time.Minute, "spool a disconnected session after this long")
		segBytes     = flag.Int64("spool-segment-bytes", 0, "roll spool segments at this size (0 = default)")
		commitEvery  = flag.Duration("spool-commit-every", 100*time.Millisecond, "spool group-commit interval")
		spoolFsync   = flag.String("spool-fsync", "commit", "spool fsync policy: always, commit, or never")
		compactSegs  = flag.Int("spool-compact-segments", 0, "compact a worker's spool once it exceeds this many segments (0 = default)")

		flightRing  = flag.Int("flight-ring", flight.DefaultRingEvents, "flight-recorder events retained per subsystem (0 = disable recording)")
		watchdogIvl = flag.Duration("watchdog", 2*time.Second, "stall-watchdog probe interval (0 = disabled)")
		bundleDir   = flag.String("bundle-dir", "lasthop-bundles", "directory for post-mortem dump bundles (watchdog trips, SIGQUIT, /debug/flight/dump)")

		obsAddr     = flag.String("obs-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/traces, and /debug/flight/dump on this address (empty = disabled)")
		traceSample = flag.Float64("trace-sample", 0, "head-sample this fraction of locally published traffic (the proxy mostly records events against contexts minted upstream; anomalies are always traced)")
		traceRing   = flag.Int("trace-ring", 0, "completed traces retained for /debug/traces (0 = default)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	logf := obs.Logf(logger, "proxy")

	flight.Enable(*flightRing)
	reg := obs.NewRegistry()
	wm := wire.NewMetrics(reg)
	burst.RegisterMetrics(reg)
	metrics.Register(reg)
	collector := trace.NewCollector(*name, trace.NewSampler(*traceSample), *traceRing)
	collector.RegisterMetrics(reg)

	// The post-mortem bundle: flight rings, metrics, pprof, and the trace
	// ring, dumped by the watchdog, SIGQUIT, or /debug/flight/dump.
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

	upstream := wire.ClientOptions{
		AutoReconnect:     *reconnect,
		Backoff:           retry.Policy{Initial: *backoffInit, Max: *backoffMax},
		HeartbeatInterval: *heartbeat,
		WriteTimeout:      *writeTimeout,
	}

	if *multi {
		if *journalPath != "" {
			return errors.New("-journal is not supported in -multi-tenant mode (use -spool-dir)")
		}
		fsync, err := spool.ParseFsyncPolicy(*spoolFsync)
		if err != nil {
			return err
		}
		h, err := host.New(host.Options{
			BrokerAddr:           *broker,
			Name:                 *name,
			Workers:              *workers,
			WheelTick:            *wheelTick,
			Upstream:             upstream,
			DeviceReadTimeout:    *devReadTO,
			DeviceWriteTimeout:   *devWriteTO,
			SpoolDir:             *spoolDir,
			HibernateAfter:       *hibAfter,
			SpoolSegmentBytes:    *segBytes,
			SpoolFsync:           fsync,
			SpoolCommitEvery:     *commitEvery,
			SpoolCompactSegments: *compactSegs,
			Logf:                 logf,
			Metrics:              wm,
			Trace:                collector,
		})
		if err != nil {
			return err
		}
		defer h.Close()
		h.RegisterMetrics(reg, *name)
		// Worker heartbeats and spool group-commit stalls; generous bounds
		// so only a genuine wedge (not load) trips. The watchdog closes
		// before the host does (defers unwind in reverse), so shutdown
		// cannot masquerade as a stall.
		watchdog.Register(h.Probes(5*time.Second, 10**commitEvery+5*time.Second)...)
		if *obsAddr != "" {
			osrv, err := obs.Serve(*obsAddr, reg,
				obs.Route{Pattern: "/debug/traces", Handler: collector.Handler()},
				obs.Route{Pattern: "/debug/flight/dump", Handler: flight.DumpHandler(bundleOpts)})
			if err != nil {
				return err
			}
			defer func() { _ = osrv.Close() }()
			logger.Info("observability endpoint up", "component", "host", "addr", osrv.Addr())
		}
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		logger.Info("serving", "component", "host", "name", *name,
			"broker", *broker, "addr", lis.Addr().String(), "workers", h.Workers())
		return h.Serve(lis)
	}

	srv, err := wire.NewProxyServerOpts(wire.ProxyOptions{
		BrokerAddr:         *broker,
		Name:               *name,
		JournalPath:        *journalPath,
		Upstream:           upstream,
		DeviceReadTimeout:  *devReadTO,
		DeviceWriteTimeout: *devWriteTO,
		Logf:               logf,
		Metrics:            wm,
		Trace:              collector,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.RegisterMetrics(reg, *name)
	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg,
			obs.Route{Pattern: "/debug/traces", Handler: collector.Handler()},
			obs.Route{Pattern: "/debug/flight/dump", Handler: flight.DumpHandler(bundleOpts)})
		if err != nil {
			return err
		}
		defer func() { _ = osrv.Close() }()
		logger.Info("observability endpoint up", "component", "proxy", "addr", osrv.Addr())
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Info("serving", "component", "proxy", "name", *name,
		"broker", *broker, "addr", lis.Addr().String())
	return srv.Serve(lis)
}
