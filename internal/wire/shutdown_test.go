package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"lasthop/internal/pubsub"
)

// TestServeReturnsNilAfterClose verifies the clean-shutdown contract:
// Serve unblocks with a nil error after an explicit Close on both server
// types, so callers can treat nil as "shut down on purpose".
func TestServeReturnsNilAfterClose(t *testing.T) {
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBrokerServer(pubsub.NewBroker("b"), t.Logf)
	bsErr := make(chan error, 1)
	go func() { bsErr <- bs.Serve(bl) }()

	ps, err := NewProxyServer(bl.Addr().String(), "p", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psErr := make(chan error, 1)
	go func() { psErr <- ps.Serve(pl) }()

	// A completed handshake proves both servers are inside their accept
	// loops before we close them.
	dev, err := DialProxy(pl.Addr().String(), "probe")
	if err != nil {
		t.Fatal(err)
	}
	_ = dev.Close()

	ps.Close()
	select {
	case err := <-psErr:
		if err != nil {
			t.Errorf("proxy Serve after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proxy Serve did not return after Close")
	}

	bs.Close()
	select {
	case err := <-bsErr:
		if err != nil {
			t.Errorf("broker Serve after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("broker Serve did not return after Close")
	}

	// A listener failure that is NOT a close still surfaces as an error.
	bl2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs2 := NewBrokerServer(pubsub.NewBroker("b2"), t.Logf)
	bs2Err := make(chan error, 1)
	go func() { bs2Err <- bs2.Serve(bl2) }()
	_ = bl2.Close() // external failure, not bs2.Close()
	select {
	case err := <-bs2Err:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve after external listener failure = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener failure")
	}
	bs2.Close()
}

// TestCloseIdempotent closes every client and server type twice; the
// second close must be a no-op, not a panic or a hang.
func TestCloseIdempotent(t *testing.T) {
	h := newHarness(t)

	pub, err := DialBroker(h.brokerAddr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Errorf("first broker client close: %v", err)
	}
	if err := pub.Close(); err != nil {
		t.Errorf("second broker client close: %v", err)
	}

	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Errorf("first device close: %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Errorf("second device close: %v", err)
	}

	sub, err := DialBroker(h.brokerAddr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	_ = sub.Close()

	// Server double-close.
	h.proxy.Close()
	h.proxy.Close()
	h.broker.Close()
	h.broker.Close()
}

// TestCallsFailFastWithoutAutoReconnect pins the legacy contract: when the
// connection dies and reconnection is off, calls return transport errors
// instead of parking.
func TestCallsFailFastWithoutAutoReconnect(t *testing.T) {
	h := newHarness(t)
	dev, err := DialProxy(h.proxyAddr, "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Subscribe("news", TopicPolicy{Policy: "buffer", Max: 4}); err != nil {
		t.Fatal(err)
	}
	_ = dev.currentConn().Close()
	waitFor(t, "call failure after loss", func() bool {
		err := dev.Subscribe("other", TopicPolicy{Policy: "buffer", Max: 4})
		return err != nil && errors.Is(err, ErrConnLost)
	})
}
