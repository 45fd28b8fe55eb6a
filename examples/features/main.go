// Features demonstrates the PBX capabilities the paper enumerates
// beyond plain calls (Sec. I: "user authentication, call management
// (call detail records), monitoring, SMS messaging, voice messages and
// callback"), plus the Fig. 1 trunk to the campus telephone exchange:
//
//  1. instant messaging between registered users,
//
//  2. offline message store-and-forward,
//
//  3. a voicemail deposit for an unreachable user,
//
//  4. the message-waiting notification at next registration,
//
//  5. a dialplan-routed call to a "landline" through the trunk, with
//     DTMF digits sent mid-call,
//
//  6. the resulting CDR log in Asterisk Master.csv form.
//
//     go run ./examples/features
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

func main() {
	r := rig.NewSim(1, 0, nil, stats.NewRNG(2), netsim.LinkProfile{Delay: time.Millisecond})
	sched, net, clock := r.Group, r.Net, r.Clock("pbx")

	dir := directory.New()
	for _, u := range []string{"alice", "bob", "carol"} {
		dir.AddUser(directory.User{Username: u, Password: "pw-" + u})
	}
	server := r.PBX("pbx", dir, pbx.Config{
		RelayRTP:             true,
		Voicemail:            true,
		StoreOfflineMessages: true,
		Dialplan: &pbx.Dialplan{Rules: []pbx.Rule{
			{Pattern: "_85XXXXXX", Kind: pbx.RouteTrunk, Trunk: "exchange:5060"},
		}},
	})
	defer server.Close()

	mk := func(host, user string) *sip.Phone {
		p := sip.NewPhone(sip.NewEndpoint(transport.NewSim(net, host+":5060"), clock),
			sip.PhoneConfig{User: user, Password: "pw-" + user, Proxy: "pbx:5060", MediaPort: 9000})
		p.Register(time.Hour, nil)
		return p
	}
	alice := mk("alice", "alice")
	bob := mk("bob", "bob")
	bob.OnMessage = func(from, body string) { fmt.Printf("bob got IM from %s: %q\n", from, body) }

	// The telephone exchange behind the trunk (Fig. 1).
	exchange := sip.NewPhone(sip.NewEndpoint(transport.NewSim(net, "exchange:5060"), clock),
		sip.PhoneConfig{User: "pstn", Proxy: "pbx:5060", MediaPort: 9500})
	var exchangeSession *media.Session
	exchange.OnIncoming = func(c *sip.Call) {
		fmt.Println("exchange: incoming trunk call for a landline")
		c.OnEstablished = func(c *sip.Call) {
			mi := c.Media()
			tr := transport.NewSim(net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
			exchangeSession = media.NewSession(tr, clock, media.SessionConfig{
				Remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), SSRC: 99})
			exchangeSession.OnDigit(func(d rune, _ time.Duration) {
				fmt.Printf("exchange received DTMF digit %q\n", d)
			})
		}
	}
	sched.Run(5 * time.Second)

	// 1. IM between registered users.
	alice.SendMessage("bob", "lunch at noon?", nil)

	// 2. Offline store-and-forward: carol is provisioned but offline.
	alice.SendMessage("carol", "ping me when you are online", func(status int) {
		fmt.Printf("alice's IM to offline carol: status %d (stored)\n", status)
	})

	// 3. Voicemail: calling offline carol.
	vmCall := alice.Invite("carol")
	vmCall.OnEstablished = func(c *sip.Call) {
		fmt.Println("alice: voicemail answered; leaving a 4 s message")
		mi := c.Media()
		tr := transport.NewSim(net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
		sess := media.NewSession(tr, clock, media.SessionConfig{
			Remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), SSRC: 7})
		sess.Start()
		clock.AfterFunc(4*time.Second, func() {
			sess.Stop()
			alice.Hangup(c)
		})
	}
	sched.Run(sched.Now() + 30*time.Second)

	// 4. Carol comes online: stored IM + MWI arrive.
	carol := mk("carol", "carol")
	carol.OnMessage = func(from, body string) { fmt.Printf("carol got message from %s: %q\n", from, body) }
	carol.Register(time.Hour, nil)
	sched.Run(sched.Now() + 10*time.Second)
	for _, vm := range server.Voicemails("carol") {
		fmt.Printf("voicemail stored for carol: from %s, %v, %d packets\n",
			vm.From, vm.Duration.Round(time.Millisecond), vm.Packets)
	}

	// 5. Trunk call with DTMF.
	trunkCall := alice.Invite("85123456")
	trunkCall.OnEstablished = func(c *sip.Call) {
		fmt.Println("alice: landline call established through the exchange trunk")
		mi := c.Media()
		tr := transport.NewSim(net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
		sess := media.NewSession(tr, clock, media.SessionConfig{
			Remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), SSRC: 8})
		for i, d := range "42#" {
			d := d
			clock.AfterFunc(time.Duration(i+1)*time.Second, func() {
				sess.SendDigit(d, 120*time.Millisecond)
			})
		}
		clock.AfterFunc(8*time.Second, func() { alice.Hangup(c) })
	}
	sched.Run(sched.Now() + time.Minute)

	// 6. The CDR log.
	fmt.Println("\nCDR export (Master.csv layout):")
	if err := pbx.WriteCSV(os.Stdout, server.Journal().Committed()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := server.CountersSnapshot()
	fmt.Printf("\ncounters: %d IMs routed, %d stored, %d voicemail deposits, %d trunk calls\n",
		c.MessagesRouted, c.MessagesStored, c.VoicemailDeposits, c.TrunkCalls)
}
