package media

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// BenchmarkSessionFrameExchange measures one 20 ms frame interval of a
// bidirectional call: each session transmits one RTP frame and receives
// the peer's through jitter-buffer and RFC 3550 accounting. This is the
// per-call steady-state cost of the packetized media model.
func BenchmarkSessionFrameExchange(b *testing.B) {
	b.ReportAllocs()
	op, done := sessionFrameExchange(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	done(b.N)
}

// TestSessionFrameExchangeAllocs pins a call's steady state — a frame
// sent and a frame received by each party every 20 ms — at no
// allocation.
func TestSessionFrameExchangeAllocs(t *testing.T) {
	op, done := sessionFrameExchange(t)
	const frames = 10000
	if n := testing.AllocsPerRun(frames, op); n != 0 {
		t.Errorf("%v allocs per frame interval, want 0", n)
	}
	done(frames)
}

// sessionFrameExchange starts two sessions sending to each other. op
// runs one frame interval; done stops them and checks that each sent at
// least n frames.
func sessionFrameExchange(tb testing.TB) (op func(), done func(n int)) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}

	a := NewSession(transport.NewSim(net, "a:4000"), clock,
		SessionConfig{Remote: "b:4000", SSRC: 0xA})
	z := NewSession(transport.NewSim(net, "b:4000"), clock,
		SessionConfig{Remote: "a:4000", SSRC: 0xB})
	a.Start()
	z.Start()
	op = func() {
		if _, err := sched.Run(sched.Now() + 20*time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}
	done = func(n int) {
		a.Stop()
		z.Stop()
		if a.SentPackets() < uint64(n) || z.SentPackets() < uint64(n) {
			tb.Fatalf("sent %d/%d frames, want >= %d", a.SentPackets(), z.SentPackets(), n)
		}
	}
	return op, done
}
