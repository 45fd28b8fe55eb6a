// Realudp runs the whole stack on real loopback UDP sockets in one
// process: an Asterisk-style PBX, two softphones that register with
// digest auth, a call between them with genuine 440 Hz G.711 µ-law
// media relayed through the server, and the per-direction RTP
// statistics and MOS at the end — Fig. 2's message flow on real
// sockets instead of the simulator.
//
//	go run ./examples/realudp
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/pbx"
	"repro/internal/sip"
	"repro/internal/transport"
)

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "realudp:", err)
		os.Exit(1)
	}
	return v
}

func main() {
	clock := transport.NewRealClock()

	// PBX on an ephemeral loopback port, wired as pbxd wires it: two
	// SO_REUSEPORT shards, each with its own batched read loop,
	// presented as one Transport; relay legs from the leg pool. The
	// registry exposes the data-plane counters next to the SIP ones.
	dir := directory.New()
	dir.AddUser(directory.User{Username: "alice", Password: "pw-alice"})
	dir.AddUser(directory.User{Username: "bob", Password: "pw-bob"})
	w := must(pbx.ListenWire("127.0.0.1:0", 2, dir, pbx.Config{RelayRTP: true, RTPPortBase: 17000}))
	defer w.Close()
	server, pbxTr, reg := w.Server, w.Listener, w.Registry
	fmt.Printf("PBX listening on %s (%d shards, batched=%v)\n",
		pbxTr.LocalAddr(), pbxTr.NumShards(), pbxTr.Batched())

	// Both phones share the loopback IP, so they need disjoint RTP
	// port ranges (in the simulator each host has its own port space).
	mkPhone := func(user string, mediaPort int) *sip.Phone {
		tr := must(transport.ListenUDP("127.0.0.1:0"))
		return sip.NewPhone(sip.NewEndpoint(tr, clock), sip.PhoneConfig{
			User:      user,
			Password:  "pw-" + user,
			Proxy:     pbxTr.LocalAddr(),
			MediaPort: mediaPort,
		})
	}
	alice, bob := mkPhone("alice", 41000), mkPhone("bob", 42000)

	regOK := make(chan bool, 2)
	alice.Register(time.Hour, func(ok bool) { regOK <- ok })
	bob.Register(time.Hour, func(ok bool) { regOK <- ok })
	for i := 0; i < 2; i++ {
		if !<-regOK {
			fmt.Fprintln(os.Stderr, "registration failed")
			os.Exit(1)
		}
	}
	fmt.Println("alice and bob registered (digest auth)")

	// Media sessions are created when each leg learns its negotiated
	// RTP rendezvous. Both synthesize a real tone.
	newSession := func(c *sip.Call) *media.Session {
		mi := c.Media()
		tr := must(transport.ListenUDP(fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort)))
		return media.NewSession(tr, clock, media.SessionConfig{
			Remote:         fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort),
			PayloadType:    uint8(mi.PayloadType),
			SynthesizeTone: true,
		})
	}

	done := make(chan struct{})
	var bobSess *media.Session
	// Over real sockets, install callbacks under Sync (and use
	// InviteWithHandlers) so traffic cannot race the assignments.
	bob.Sync(func() {
		bob.OnIncoming = func(c *sip.Call) {
			fmt.Println("bob: incoming call from alice, auto-answering")
			c.OnEstablished = func(c *sip.Call) {
				bobSess = newSession(c)
				bobSess.Start()
			}
		}
	})

	var aliceSess *media.Session
	_ = alice.InviteWithHandlers("bob",
		func(*sip.Call) { fmt.Println("alice: ringing…") },
		func(c *sip.Call) {
			fmt.Println("alice: call established; streaming 3 s of tone")
			aliceSess = newSession(c)
			aliceSess.Start()
			time.AfterFunc(3*time.Second, func() {
				aliceSess.Stop()
				if bobSess != nil {
					bobSess.Stop()
				}
				alice.Hangup(c)
			})
		},
		func(c *sip.Call) {
			fmt.Printf("alice: call ended (%v) after %v\n", c.Cause(), c.Duration().Round(time.Millisecond))
			close(done)
		})

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "timed out")
		os.Exit(1)
	}
	// Give trailing packets a beat, then report.
	time.Sleep(200 * time.Millisecond)

	if aliceSess != nil {
		r := aliceSess.Report(mos.G711)
		fmt.Printf("alice media: sent %d pkts, received %d, loss %.2f%%, jitter %v, MOS %.2f\n",
			r.Sent, r.Stream.Received, r.EffectiveLoss*100, r.Stream.Jitter.Round(time.Microsecond), r.MOS)
	}
	if bobSess != nil {
		r := bobSess.Report(mos.G711)
		fmt.Printf("bob media:   sent %d pkts, received %d, loss %.2f%%, jitter %v, MOS %.2f\n",
			r.Sent, r.Stream.Received, r.EffectiveLoss*100, r.Stream.Jitter.Round(time.Microsecond), r.MOS)
	}
	for _, cdr := range server.RecentCalls() {
		fmt.Printf("PBX call record: %s → %s, %.3f s, %s, relay MOS %.2f\n",
			cdr.Caller, cdr.Callee, cdr.Duration.Seconds(), cdr.Disposition, cdr.MOS)
	}
	c := server.CountersSnapshot()
	fmt.Printf("PBX relayed %d RTP packets\n", c.RelayedPackets)

	// Data-plane counters, straight from the telemetry registry the
	// transport publishes into (the same values /metrics would serve).
	var names []string
	vals := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		if !strings.HasPrefix(fam.Name, "udp_") {
			continue
		}
		for _, m := range fam.Metrics {
			if m.Value != nil {
				names = append(names, fam.Name)
				vals[fam.Name] += *m.Value
			}
		}
	}
	sort.Strings(names)
	fmt.Println("SIP transport data plane:")
	for _, n := range names {
		fmt.Printf("  %s = %.0f\n", n, vals[n])
	}
}
