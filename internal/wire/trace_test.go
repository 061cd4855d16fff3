package wire

// The trace-context frame fields: a context minted at publish accept rides
// every push of its notification, on every hop.

import (
	"testing"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
	"lasthop/internal/trace"
)

// traceBroker attaches a head-sampling collector (rate 1) to the harness
// broker so every publish mints a context.
func traceBroker(t *testing.T, h *harness) {
	t.Helper()
	h.broker.broker.SetTracer(trace.NewCollector("test-broker", trace.NewSampler(1), 64))
}

// readTraced issues one READ and reports how many of the transferred
// notifications carried a trace context alongside the total.
func (d *rawDevice) readTraced(t *testing.T, topic string, n int) (withCtx, total int) {
	t.Helper()
	seq, err := d.conn.SendRequest(&Frame{Type: TypeRead, Read: &msg.ReadRequest{Topic: topic, N: n}})
	if err != nil {
		t.Fatalf("read request: %v", err)
	}
	for {
		f, err := d.conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch {
		case f.Re == seq && f.Type == TypeErr:
			t.Fatalf("read rejected: %s %s", f.Code, f.Message)
		case f.Re == seq && f.Type == TypeOK:
			return withCtx, total
		case f.Type == TypePush:
			total++
			if f.Trace != nil {
				withCtx++
			}
		case f.Type == TypePushBatch:
			total += len(f.Batch)
			for _, tc := range f.Traces {
				if tc != nil {
					withCtx++
				}
			}
		}
	}
}

// TestTraceContextReachesCapableDevice: with tracing on at the broker, the
// context minted at publish accept arrives at the device on each
// transferred notification. Two broker subscribers of one topic each get
// the context from the fan-out's single encoded frame: every release of
// that frame but the last is a shared put, one per subscriber.
func TestTraceContextReachesCapableDevice(t *testing.T) {
	h := newHarness(t)
	traceBroker(t, h)

	subs := []*Conn{
		dialSubscriber(t, h.brokerAddr, "sub-a", "alerts"),
		dialSubscriber(t, h.brokerAddr, "sub-b", "alerts"),
	}
	pub, err := DialBroker(h.brokerAddr, "alerts-publisher")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("alerts", ""); err != nil {
		t.Fatal(err)
	}
	sharedBase := burst.Bufs.SharedPuts()
	if err := pub.Publish(wireNote("a1", "alerts", 5)); err != nil {
		t.Fatal(err)
	}
	for i, conn := range subs {
		f := recvPush(t, conn, "subscriber")
		if f.Trace == nil || f.Trace.TraceID != "a1" {
			t.Errorf("subscriber %d got trace %+v, want trace a1", i, f.Trace)
		}
	}
	want := int64(len(subs))
	waitFor(t, "shared frame released", func() bool { return burst.Bufs.SharedPuts()-sharedBase >= want })
	if got := burst.Bufs.SharedPuts() - sharedBase; got != want {
		t.Errorf("fan-out of width %d made %d shared releases, want %d (one encode)", want, got, want)
	}

	dev := dialRawDevice(t, h.proxyAddr)
	dev.subscribe(t, "news", TopicPolicy{Policy: "on-demand", Max: 64})
	publishBurst(t, h, "news", 6)

	withCtx, total := dev.readTraced(t, "news", 0)
	if total != 6 {
		t.Fatalf("read transferred %d notifications, want 6", total)
	}
	if withCtx != 6 {
		t.Errorf("only %d of %d notifications carried a trace context", withCtx, total)
	}
}
