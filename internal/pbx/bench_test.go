package pbx

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// relayForward sets up the per-packet RTP relay path the paper
// identifies as the CPU bottleneck ("the RTP messages ... are
// responsible for the great part of the CPU demands"): inbound packet
// on the caller-facing port, stream observation, overload-drop
// decision, forward out of the callee-facing port, and delivery. With
// transcode the bridge is armed for G.711→G.729 payload rewriting — the
// packet-path cost a transcoding call adds on top of plain forwarding.
// op relays packet i; check verifies that n of them were accounted for.
func relayForward(tb testing.TB, transcode bool) (s *Server, op func(i int), check func(n int)) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("pbx:%d", port)), nil
	}
	s = New(sip.NewEndpoint(transport.NewSim(net, "pbx:5060"), clock),
		directory.New(), factory, Config{RelayRTP: true})

	r, err := s.newRelay(nil, &sdp.Session{Host: "caller", Port: 4000})
	if err != nil {
		tb.Fatal(err)
	}
	r.setCalleeMedia("callee", 4002)
	if transcode {
		r.setBridgeCodecs(codec.Bridge{
			APayloadType: codec.G711U.PayloadType,
			BPayloadType: codec.G729.PayloadType,
			Transcode:    true,
		})
	}

	// Sink both party media ports so forwarded packets terminate.
	var delivered int
	net.Bind(netsim.Addr{Host: "callee", Port: 4002},
		netsim.HandlerFunc(func(time.Duration, *netsim.Packet) { delivered++ }))
	net.Bind(netsim.Addr{Host: "caller", Port: 4000},
		netsim.HandlerFunc(func(time.Duration, *netsim.Packet) { delivered++ }))

	src := netsim.Addr{Host: "caller", Port: 4000}
	relayIn := netsim.Addr{Host: "pbx", Port: r.aPort}
	pkt := rtp.Packet{PayloadType: 0, SSRC: 0x1234, Payload: make([]byte, 160)}
	wire := pkt.Marshal(nil)

	op = func(i int) {
		pkt.Sequence = uint16(i)
		pkt.Timestamp = uint32(i * 160)
		wire = pkt.Marshal(wire[:0])
		net.Send(src, relayIn, wire)
		if _, err := sched.Run(sched.Now() + 3*time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}
	check = func(n int) {
		fwd, drop, trans := r.forwarded.Load(), r.dropped.Load(), r.transcoded.Load()
		if fwd+drop != uint64(n) || delivered != int(fwd) || transcode && trans != fwd {
			tb.Fatalf("forwarded %d dropped %d transcoded %d delivered %d of %d",
				fwd, drop, trans, delivered, n)
		}
	}
	return s, op, check
}

func benchmarkRelayForward(b *testing.B, transcode bool) {
	b.ReportAllocs()
	_, op, check := relayForward(b, transcode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	check(b.N)
}

func BenchmarkRelayForward(b *testing.B)          { benchmarkRelayForward(b, false) }
func BenchmarkRelayForwardTranscode(b *testing.B) { benchmarkRelayForward(b, true) }

// TestRelayForwardAllocs pins the relay's per-packet path at no
// allocation, passthrough and transcoding alike: the synthetic frames
// and marshal buffers are preallocated at negotiation.
func TestRelayForwardAllocs(t *testing.T) {
	for _, transcode := range []bool{false, true} {
		_, op, check := relayForward(t, transcode)
		i := 0
		if n := testing.AllocsPerRun(10000, func() { op(i); i++ }); n != 0 {
			t.Errorf("transcode=%v: %v allocs/packet, want 0", transcode, n)
		}
		check(i)
	}
}

// TestRelayForwardsWithoutServerLock: below the overload knee the
// relay decides a packet's fate without the server lock, so media keeps
// flowing while signalling holds it.
func TestRelayForwardsWithoutServerLock(t *testing.T) {
	s, op, check := relayForward(t, false)
	s.mu.Lock()
	release := time.AfterFunc(5*time.Second, s.mu.Unlock)
	op(0)
	if !release.Stop() {
		t.Fatal("relay waited for the server lock with no overload drop in force")
	}
	s.mu.Unlock()
	check(1)
}
