package pbx

import (
	"fmt"
	"testing"

	"repro/internal/directory"
	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/transport"
)

// BenchmarkRelayForwardRealUDP is BenchmarkRelayForward over real
// loopback sockets: caller bursts of 32 packets hit the relay's A port,
// cross the observe/drop/forward path, leave the B port with one sendto
// each and land on a sink — the wire-speed counterpart of the netsim
// number. The fallback variant gives each relay leg a portable
// net.UDPConn read loop; the pool variant takes them from a
// transport.LegPool, as pbxd does. What the pool is for, many 50 pps
// legs sharing a reader, is the wire_media workload of ./benchmark.
func BenchmarkRelayForwardRealUDP(b *testing.B) {
	variants := []struct {
		name string
		cfg  transport.UDPConfig
		pool bool // relay legs from a transport.LegPool; cfg is for the other sockets
	}{
		{"fallback", transport.UDPConfig{DisableBatch: true}, false},
		{"pool", transport.UDPConfig{}, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			clock := transport.NewRealClock()
			pbxTr, err := transport.ListenUDPConfig("127.0.0.1:0", v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var legs []*transport.UDPTransport
			factory := func(port int) (transport.Transport, error) {
				tr, err := transport.ListenUDPConfig(fmt.Sprintf("127.0.0.1:%d", port), v.cfg)
				if err == nil {
					legs = append(legs, tr)
				}
				return tr, err
			}
			var legPool *transport.LegPool
			if v.pool {
				legPool = transport.NewLegPool("127.0.0.1")
				factory = legPool.Listen
			}
			s := New(sip.NewEndpoint(pbxTr, clock), directory.New(), factory,
				Config{RelayRTP: true, RTPPortBase: nextPortBase()})
			defer s.Close()

			callerPort := nextPortBase()
			r, err := s.newRelay(nil, &sdp.Session{Host: "127.0.0.1", Port: callerPort})
			if err != nil {
				b.Fatal(err)
			}

			// The callee sink counts deliveries; tokens park the sender
			// so the read loops get the core between bursts.
			sink, err := transport.ListenUDPConfig("127.0.0.1:0", v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			tokens := make(chan struct{}, 4*transport.DefaultBatch)
			sink.SetReceiver(func(string, []byte) { tokens <- struct{}{} })
			sinkHost, sinkPort := splitHostPort(b, sink.LocalAddr())
			r.setCalleeMedia(sinkHost, sinkPort)

			// The relay takes media only from the address the SDP named.
			sender, err := transport.ListenUDPConfig(fmt.Sprintf("127.0.0.1:%d", callerPort), v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sender.Close()

			relayIn := fmt.Sprintf("127.0.0.1:%d", r.aPort)
			pkt := rtp.Packet{PayloadType: 0, SSRC: 0x1234, Payload: make([]byte, 160)}
			wire := pkt.Marshal(nil)
			sender.Send(relayIn, wire)
			<-tokens

			const burst = transport.DefaultBatch
			b.ResetTimer()
			seq := 1
			for done := 0; done < b.N; {
				n := burst
				if rem := b.N - done; rem < n {
					n = rem
				}
				for i := 0; i < n; i++ {
					pkt.Sequence = uint16(seq)
					pkt.Timestamp = uint32(seq * 160)
					seq++
					wire = pkt.Marshal(wire[:0])
					sender.Send(relayIn, wire)
				}
				for i := 0; i < n; i++ {
					<-tokens
				}
				done += n
			}
			b.StopTimer()
			b.ReportMetric(1, "events/run")

			fwd, drop := r.forwarded.Load(), r.dropped.Load()
			if fwd != uint64(b.N+1) || drop != 0 {
				b.Fatalf("forwarded %d dropped %d of %d", fwd, drop, b.N+1)
			}
			r.close()
			for i, tr := range legs {
				if gets, puts := tr.PoolStats(); gets != puts {
					b.Fatalf("relay leg %d pool leak: gets=%d puts=%d", i, gets, puts)
				}
			}
			if legPool != nil {
				legPool.Close()
				if gets, puts := legPool.PoolStats(); gets != puts {
					b.Fatalf("leg pool leak: gets=%d puts=%d", gets, puts)
				}
			}
		})
	}
}

func splitHostPort(tb testing.TB, addr string) (string, int) {
	tb.Helper()
	var host string
	var port int
	i := len(addr) - 1
	for i >= 0 && addr[i] != ':' {
		i--
	}
	if i < 0 {
		tb.Fatalf("bad addr %q", addr)
	}
	host = addr[:i]
	if _, err := fmt.Sscanf(addr[i+1:], "%d", &port); err != nil {
		tb.Fatalf("bad addr %q: %v", addr, err)
	}
	return host, port
}
