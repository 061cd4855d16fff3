package wire

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"lasthop/internal/burst"
	"lasthop/internal/msg"
)

// benchConns returns width client Conns over real TCP loopback sockets,
// with the server side drained raw (io.Discard) so the receiver costs the
// benchmark no decode allocations.
func benchConns(b *testing.B, width int) []*Conn {
	b.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = lis.Close() })
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	conns := make([]*Conn, width)
	for i := range conns {
		cc, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		sc := <-accepted
		go func() { _, _ = io.Copy(io.Discard, sc) }()
		conns[i] = NewConn(cc)
		b.Cleanup(func() { _ = conns[i].Close(); _ = sc.Close() })
	}
	return conns
}

// BenchmarkWireFanout measures the egress cost of broadcasting one push
// frame to width connections — encode included, which is where the
// per-target path pays. "shared" encodes once and enqueues the same
// ref-counted buffer on every ring (the PR's datapath); "pertarget"
// re-encodes per connection (the pre-shared baseline, still the
// last-hop fallback). ns/delivery divides the op cost by
// the width.
func BenchmarkWireFanout(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	base := time.Unix(1700000000, 0).UTC()
	for _, width := range []int{8, 256, 1024} {
		for _, variant := range []string{"shared", "pertarget"} {
			b.Run(fmt.Sprintf("%s/width-%d", variant, width), func(b *testing.B) {
				conns := benchConns(b, width)
				note := &msg.Notification{Topic: "bench/wide", Publisher: "pub", Rank: 3, Published: base, Payload: payload}
				idbuf := make([]byte, 0, 32)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idbuf = append(idbuf[:0], 'w', '-')
					idbuf = strconv.AppendInt(idbuf, int64(i), 10)
					note.ID = msg.ID(idbuf)
					switch variant {
					case "shared":
						buf := burst.Bufs.Get()
						out, err := appendFrame(buf.B[:0], &Frame{Type: TypePush, Notification: note})
						if err != nil {
							b.Fatal(err)
						}
						buf.B = out
						for _, c := range conns {
							if err := c.SendShared(buf.Ref()); err != nil {
								b.Fatal(err)
							}
						}
						burst.Bufs.Put(buf)
					case "pertarget":
						for _, c := range conns {
							if err := c.Send(&Frame{Type: TypePush, Notification: note}); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(width)), "ns/delivery")
			})
		}
	}
}
