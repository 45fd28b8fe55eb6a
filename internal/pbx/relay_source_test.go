package pbx

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// sourceRig is one live relay between a caller and a callee, with a
// stranger who knows both relay ports. Each party counts what reaches
// it; settle returns once cond holds (or fails the test).
type sourceRig struct {
	s *Server
	r *relay

	fromCaller   func(data []byte) // the caller's socket → the relay's A port
	fromCallee   func(data []byte) // the callee's socket → the relay's B port
	fromStranger func(relayPort int, data []byte)
	callerGot    func() uint64
	calleeGot    func() uint64
	settle       func(what string, cond func() bool)
}

func newSimSourceRig(t *testing.T) *sourceRig {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("pbx:%d", port)), nil
	}
	s := New(sip.NewEndpoint(transport.NewSim(net, "pbx:5060"), transport.SimClock{Sched: sched}),
		directory.New(), factory, Config{RelayRTP: true})
	r, err := s.newRelay(nil, &sdp.Session{Host: "caller", Port: 4000})
	if err != nil {
		t.Fatal(err)
	}
	r.setCalleeMedia("callee", 4002)

	caller, callee := netsim.Addr{Host: "caller", Port: 4000}, netsim.Addr{Host: "callee", Port: 4002}
	var callerGot, calleeGot uint64
	net.Bind(caller, netsim.HandlerFunc(func(time.Duration, *netsim.Packet) { callerGot++ }))
	net.Bind(callee, netsim.HandlerFunc(func(time.Duration, *netsim.Packet) { calleeGot++ }))
	stranger := netsim.Addr{Host: "mallory", Port: 6666}
	return &sourceRig{
		s: s, r: r,
		fromCaller: func(data []byte) { net.Send(caller, netsim.Addr{Host: "pbx", Port: r.aPort}, data) },
		fromCallee: func(data []byte) { net.Send(callee, netsim.Addr{Host: "pbx", Port: r.bPort}, data) },
		fromStranger: func(port int, data []byte) {
			net.Send(stranger, netsim.Addr{Host: "pbx", Port: port}, data)
		},
		callerGot: func() uint64 { return callerGot },
		calleeGot: func() uint64 { return calleeGot },
		settle: func(what string, cond func() bool) {
			t.Helper()
			if _, err := sched.Run(sched.Now() + 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if !cond() {
				t.Fatalf("%s: not after everything in flight was delivered", what)
			}
		},
	}
}

func newUDPSourceRig(t *testing.T) *sourceRig {
	listen := func(addr string) *transport.UDPTransport {
		tr, err := transport.ListenUDP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	legs := transport.NewLegPool("127.0.0.1")
	t.Cleanup(func() { legs.Close() })
	s := New(sip.NewEndpoint(listen("127.0.0.1:0"), transport.NewRealClock()),
		directory.New(), legs.Listen, Config{RelayRTP: true, RTPPortBase: nextPortBase()})
	t.Cleanup(s.Close)

	// Each party sends from the socket its SDP names, as RFC 4961 asks
	// of it; the stranger from wherever it likes.
	callerPort := nextPortBase()
	caller := listen(fmt.Sprintf("127.0.0.1:%d", callerPort))
	callee, stranger := listen("127.0.0.1:0"), listen("127.0.0.1:0")
	var callerGot, calleeGot atomic.Uint64
	caller.SetReceiver(func(string, []byte) { callerGot.Add(1) })
	callee.SetReceiver(func(string, []byte) { calleeGot.Add(1) })

	r, err := s.newRelay(nil, &sdp.Session{Host: "127.0.0.1", Port: callerPort})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	r.setCalleeMedia(splitHostPort(t, callee.LocalAddr()))
	return &sourceRig{
		s: s, r: r,
		fromCaller: func(data []byte) { caller.Send(fmt.Sprintf("127.0.0.1:%d", r.aPort), data) },
		fromCallee: func(data []byte) { callee.Send(fmt.Sprintf("127.0.0.1:%d", r.bPort), data) },
		fromStranger: func(port int, data []byte) {
			stranger.Send(fmt.Sprintf("127.0.0.1:%d", port), data)
		},
		callerGot: callerGot.Load,
		calleeGot: calleeGot.Load,
		settle: func(what string, cond func() bool) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
				time.Sleep(time.Millisecond)
			}
		},
	}
}

// TestRelayAcceptsMediaOnlyFromSDPAddress: a relay port is reachable by
// anyone who guesses its number, so the relay forwards only what comes
// from the address the party's SDP named. A stranger's datagram is not
// forwarded, is not shown to the QoS sensor, and is counted once; the
// parties' streams do not notice it.
func TestRelayAcceptsMediaOnlyFromSDPAddress(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *sourceRig{
		"netsim": newSimSourceRig,
		"udp":    newUDPSourceRig,
	} {
		t.Run(name, func(t *testing.T) {
			rig := build(t)
			pkt := rtp.Packet{PayloadType: 0, SSRC: 0x1234, Payload: make([]byte, 160)}
			audio := func(seq int) []byte {
				pkt.Sequence, pkt.Timestamp = uint16(seq), uint32(seq*160)
				return pkt.Marshal(nil)
			}
			rejected := func() uint64 { return rig.s.CountersSnapshot().RejectedPackets }
			qos := func() [2]any {
				rig.r.mu.Lock()
				defer rig.r.mu.Unlock()
				return [2]any{rig.r.fromCaller.Snapshot(), rig.r.fromCallee.Snapshot()}
			}

			for seq := 0; seq < 5; seq++ {
				rig.fromCaller(audio(seq))
				rig.fromCallee(audio(seq))
			}
			rig.settle("the parties' first packets", func() bool { return rig.calleeGot() == 5 && rig.callerGot() == 5 })
			before := qos()

			// A hijack attempt: the stranger continues the caller's
			// stream — right SSRC, next sequence number — into both
			// ports, and adds a sender report.
			sr := rtp.SenderReport{SSRC: 0x1234, PacketCount: 6}
			rig.fromStranger(rig.r.aPort, audio(5))
			rig.fromStranger(rig.r.bPort, audio(5))
			rig.fromStranger(rig.r.aPort, sr.Marshal(nil))
			rig.settle("three rejections", func() bool { return rejected() == 3 })
			if rig.calleeGot() != 5 || rig.callerGot() != 5 {
				t.Errorf("the stranger's datagrams were forwarded: callee has %d, caller %d, want 5 and 5",
					rig.calleeGot(), rig.callerGot())
			}
			if after := qos(); after != before {
				t.Errorf("the stranger's datagrams reached the QoS sensors:\nbefore %+v\nafter  %+v", before, after)
			}

			for seq := 5; seq < 10; seq++ {
				rig.fromCaller(audio(seq))
				rig.fromCallee(audio(seq))
			}
			rig.settle("the parties' next packets", func() bool { return rig.calleeGot() == 10 && rig.callerGot() == 10 })
			if fwd, drop := rig.r.forwarded.Load(), rig.r.dropped.Load(); fwd != 20 || drop != 0 || rejected() != 3 {
				t.Errorf("forwarded %d, dropped %d, rejected %d; want 20, 0 and 3", fwd, drop, rejected())
			}
			rig.r.mu.Lock()
			up, down := rig.r.fromCaller.Snapshot().Stream, rig.r.fromCallee.Snapshot().Stream
			rig.r.mu.Unlock()
			if up.Received != 10 || down.Received != 10 || up.Lost != 0 || down.Lost != 0 || up.Duplicates != 0 || down.Duplicates != 0 {
				t.Errorf("the parties' streams were disturbed: caller→callee %+v, callee→caller %+v", up, down)
			}
		})
	}
}

// TestLateMediaReachesNoLiveRelay: relay ports are reused oldest
// first. Two calls end a second apart and a third starts at once; a
// packet the second call's caller sends 100 ms after its BYE finds its
// old relay port closed, where reusing the newest freed port would have
// handed it to the third call's relay, which rejects it by source.
func TestLateMediaReachesNoLiveRelay(t *testing.T) {
	r := newRig(t, 6, Config{RelayRTP: true})
	invite := func(from, to int) *sip.Call {
		c := r.phones[from].Invite(fmt.Sprintf("u%d", to))
		r.sched.Run(r.sched.Now() + 5*time.Second)
		if c.State() != sip.CallEstablished {
			t.Fatalf("call u%d→u%d: %v", from, to, c.State())
		}
		return c
	}
	hangup := func(from int, c *sip.Call) {
		r.phones[from].Hangup(c)
		r.sched.Run(r.sched.Now() + time.Second)
	}
	first, second := invite(0, 1), invite(2, 3)
	hangup(0, first)
	byeAt := r.sched.Now()
	r.phones[2].Hangup(second)
	r.phones[4].Invite("u5")

	oldPort := second.Media().RemotePort
	late := rtp.Packet{PayloadType: 0, SSRC: 0x2222, Payload: make([]byte, 160)}
	r.clock.AfterFunc(byeAt+100*time.Millisecond-r.sched.Now(), func() {
		r.net.Send(netsim.Addr{Host: "host2", Port: 4000}, netsim.Addr{Host: "pbx", Port: oldPort}, late.Marshal(nil))
	})
	noRoute := r.net.NoRoute()
	r.sched.Run(r.sched.Now() + 5*time.Second)
	if got := r.server.CountersSnapshot().RejectedPackets; got != 0 {
		t.Errorf("a live relay rejected %d late packets of an ended call", got)
	}
	if got := r.net.NoRoute() - noRoute; got != 1 {
		t.Errorf("%d datagrams hit a closed port, want the late packet", got)
	}
}
