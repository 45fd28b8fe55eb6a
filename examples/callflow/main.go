// Callflow reproduces Figure 2 of the paper — "Operation of SIP
// protocol" — by running one call through the simulated Asterisk PBX
// and rendering the captured SIP message ladder between the call
// generator, the server and the call receiver.
//
//	go run ./examples/callflow
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

func main() {
	r := rig.NewSim(1, 0, nil, stats.NewRNG(1), netsim.LinkProfile{Delay: 2 * time.Millisecond})
	sched, net, clock := r.Group, r.Net, r.Clock("asterisk")

	trace := monitor.NewFlowTrace()
	net.AddTap(trace.Tap())

	dir := directory.New()
	dir.AddUser(directory.User{Username: "generator", Password: "pw-generator"})
	dir.AddUser(directory.User{Username: "receiver", Password: "pw-receiver"})
	server := r.PBX("asterisk", dir, pbx.Config{})
	defer server.Close()

	mk := func(host, user string) *sip.Phone {
		return sip.NewPhone(sip.NewEndpoint(transport.NewSim(net, host+":5060"), clock),
			sip.PhoneConfig{User: user, Password: "pw-" + user, Proxy: "asterisk:5060",
				AnswerDelay: 2 * time.Second})
	}
	generator := mk("generator", "generator")
	receiver := mk("receiver", "receiver")
	generator.Register(time.Hour, nil)
	receiver.Register(time.Hour, nil)
	sched.Run(5 * time.Second)

	// One call: 10 s of conversation, then the generator hangs up —
	// exactly the Fig. 2 sequence.
	callPlaced := sched.Now()
	call := generator.Invite("receiver")
	call.OnEstablished = func(c *sip.Call) {
		clock.AfterFunc(10*time.Second, func() { generator.Hangup(c) })
	}
	sched.Run(5 * time.Minute)

	if call.State() != sip.CallTerminated || call.Cause() != sip.EndCompleted {
		fmt.Fprintln(os.Stderr, "call did not complete:", call.State(), call.Cause())
		os.Exit(1)
	}

	// Render only the call's messages (drop registration traffic).
	fmt.Println("Figure 2: operation of the SIP protocol (one call through the PBX)")
	fmt.Println()
	callTrace := monitor.NewFlowTrace()
	for _, e := range trace.Events() {
		if e.At >= callPlaced {
			callTrace.ObserveEvent(e)
		}
	}
	callTrace.Render(os.Stdout, []string{"generator", "asterisk", "receiver"})
	fmt.Println()
	fmt.Println("message counts:", callTrace.Summary())
	fmt.Printf("setup took %v; 9 messages to establish + 4 to tear down = 13 total\n",
		call.SetupTime().Round(time.Millisecond))
}
