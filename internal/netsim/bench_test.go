package netsim_test

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// schedulerCycle returns one schedule/fire plus one schedule/stop cycle
// — the scheduler's contribution to every simulated packet (each hop is
// one scheduled delivery, and SIP transactions arm and cancel
// retransmission timers constantly) — and the count of events fired.
func schedulerCycle(tb testing.TB) (op func(), fired *int) {
	s := netsim.NewScheduler()
	fired = new(int)
	ev := func(time.Duration) { *fired++ }
	return func() {
		s.After(time.Millisecond, ev)
		tm := s.After(time.Hour, ev) // far-future timer, cancelled like a SIP timer
		tm.Stop()
		if _, err := s.Run(s.Now() + time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}, fired
}

func BenchmarkSchedulerCycle(b *testing.B) {
	b.ReportAllocs()
	op, fired := schedulerCycle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if *fired != b.N {
		b.Fatalf("fired %d, want %d", *fired, b.N)
	}
}

// BenchmarkSchedulerMixedHorizon schedules a near event (RTP cadence),
// a mid event (SIP T1) and a far event (hold timer) per op, firing only
// the near one — the realistic mix that exercises wheel and overflow.
func BenchmarkSchedulerMixedHorizon(b *testing.B) {
	b.ReportAllocs()
	s := netsim.NewScheduler()
	fired := 0
	ev := func(time.Duration) { fired++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(20*time.Millisecond, ev)
		t1 := s.After(500*time.Millisecond, ev)
		t2 := s.After(120*time.Second, ev)
		if _, err := s.Run(s.Now() + 20*time.Millisecond); err != nil {
			b.Fatal(err)
		}
		t1.Stop()
		t2.Stop()
	}
}

// networkSend returns one G.711-sized datagram sent over a 1 ms link
// and delivered to its handler, and the count delivered. Network.Send
// resolves the route on every call.
func networkSend(tb testing.TB) (op func(), got *int) {
	s := netsim.NewScheduler()
	n := netsim.NewNetwork(s, stats.NewRNG(1))
	n.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	src := netsim.Addr{Host: "a", Port: 1}
	dst := netsim.Addr{Host: "b", Port: 2}
	got = new(int)
	n.Bind(dst, netsim.HandlerFunc(func(time.Duration, *netsim.Packet) { *got++ }))
	payload := make([]byte, 172) // 12-byte RTP header + 160-byte G.711 frame
	return func() {
		n.Send(src, dst, payload)
		if _, err := s.Run(s.Now() + 2*time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}, got
}

func BenchmarkNetworkSend(b *testing.B) {
	b.ReportAllocs()
	op, got := networkSend(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if *got != b.N {
		b.Fatalf("delivered %d, want %d", *got, b.N)
	}
}

// simTransportSend is networkSend through the layer every simulated
// SIP endpoint and media leg sends with: a transport.SimTransport
// sending to one peer, so each datagram rides the cached route.
func simTransportSend(tb testing.TB) (op func(), got *int) {
	s := netsim.NewScheduler()
	n := netsim.NewNetwork(s, stats.NewRNG(1))
	n.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	src := transport.NewSim(n, "a:1")
	got = new(int)
	transport.NewSim(n, "b:2").SetReceiver(func(string, []byte) { *got++ })
	payload := make([]byte, 172)
	return func() {
		src.Send("b:2", payload)
		if _, err := s.Run(s.Now() + 2*time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}, got
}

func BenchmarkSimTransportSend(b *testing.B) {
	b.ReportAllocs()
	op, got := simTransportSend(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if *got != b.N {
		b.Fatalf("delivered %d, want %d", *got, b.N)
	}
}

// TestEngineAllocs pins what the simulator pays per event: nothing. A
// packetized Table I cell fires tens of millions of events, so one
// allocation here is the whole run's garbage.
func TestEngineAllocs(t *testing.T) {
	cycle, _ := schedulerCycle(t)
	send, _ := networkSend(t)
	route, _ := simTransportSend(t)
	for name, op := range map[string]func(){
		"schedule + fire":                                cycle,
		"Network.Send to deliver":                        send,
		"SimTransport.Send on a cached route to deliver": route,
	} {
		if n := testing.AllocsPerRun(10000, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
