package main

import (
	"fmt"
	"net"
	"runtime"

	"lasthop/internal/host"
	"lasthop/internal/obs"
	"lasthop/internal/pubsub"
	"lasthop/internal/wire"
)

// topology is the real deployment in one process over loopback TCP:
// publishers → wire.BrokerServer(pubsub.Broker) → one multi-tenant host.Host
// → wire.DeviceClients. GOMAXPROCS and the host's worker count stay at their
// defaults.
type topology struct {
	broker *pubsub.Broker
	server *wire.BrokerServer
	host   *host.Host
	devs   []*wire.DeviceClient
	pubs   []*wire.BrokerClient

	// devWire counts only what the device connections receive: the last
	// hop as the mobile user pays for it.
	devWire *wire.Metrics
	// hostWire (traced runs only) counts the host's device-facing
	// connections: flush syscalls and bytes written to the last hop.
	hostWire *wire.Metrics
}

func deviceName(i int) string { return fmt.Sprintf("bench-dev-%02d", i) }

// buildTopology brings the whole stack up and subscribes every device. On
// error everything already started is closed.
func buildTopology(sp *spec, topics []string, traced bool) (t *topology, err error) {
	t = &topology{broker: pubsub.NewBroker("bench-broker")}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()

	blis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	t.server = wire.NewBrokerServerOpts(t.broker, wire.ServerOptions{})
	go func() { _ = t.server.Serve(blis) }()
	brokerAddr := blis.Addr().String()

	opts := host.Options{BrokerAddr: brokerAddr, Name: "bench-host"}
	if traced {
		t.hostWire = wire.NewMetrics(obs.NewRegistry())
		opts.Metrics = t.hostWire
		// Keep the broker-facing connection out of the last-hop counts.
		opts.Upstream.Metrics = wire.NewMetrics(obs.NewRegistry())
	}
	if t.host, err = host.New(opts); err != nil {
		return t, err
	}
	hlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	go func() { _ = t.host.Serve(hlis) }()
	hostAddr := hlis.Addr().String()

	t.devWire = wire.NewMetrics(obs.NewRegistry())
	for i := 0; i < sp.devices; i++ {
		dev, derr := wire.DialProxyOpts(hostAddr, deviceName(i), wire.ClientOptions{Metrics: t.devWire})
		if derr != nil {
			return t, fmt.Errorf("device %d: %w", i, derr)
		}
		t.devs = append(t.devs, dev)
		if err = dev.Subscribe(topics[i%sp.topics], sp.policy); err != nil {
			return t, fmt.Errorf("device %d subscribe: %w", i, err)
		}
	}

	// Load comes from at most nproc publisher connections.
	conns := sp.conns
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	for i := 0; i < conns; i++ {
		pub, perr := wire.DialBrokerOpts(brokerAddr, fmt.Sprintf("bench-pub-%d", i), wire.ClientOptions{})
		if perr != nil {
			return t, fmt.Errorf("publisher %d: %w", i, perr)
		}
		t.pubs = append(t.pubs, pub)
		for _, topic := range topics {
			if err = pub.Advertise(topic, publisherName); err != nil {
				return t, fmt.Errorf("advertise %s: %w", topic, err)
			}
		}
	}
	return t, nil
}

// close tears the stack down from the edges in: publishers, devices, host,
// broker. It is safe on a partially built topology.
func (t *topology) close() {
	for _, p := range t.pubs {
		_ = p.Close()
	}
	for _, d := range t.devs {
		_ = d.Close()
	}
	if t.host != nil {
		t.host.Close()
	}
	if t.server != nil {
		t.server.Close()
	}
}
