package sip

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestMessageFamiliesReadStats runs a call between two phones that
// publish into one registry, plus a garbage datagram, a stray response
// and a request that times out, and checks every sip_* series against
// the two endpoints' StatsSnapshot: sip_messages_total{dir,kind} is the
// Sent / Received tallies classified by kind, and the scalar families
// are the Stats fields — summed over both endpoints.
func TestMessageFamiliesReadStats(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(5))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}
	alice := NewPhone(NewEndpoint(transport.NewSim(net, "alice:5060"), clock),
		PhoneConfig{User: "alice", Proxy: "bob:5060", MediaPort: 4000})
	bob := NewPhone(NewEndpoint(transport.NewSim(net, "bob:5060"), clock),
		PhoneConfig{User: "bob", Proxy: "alice:5060", MediaPort: 4100})
	reg := telemetry.NewRegistry()
	alice.ep.UseTelemetry(reg)
	bob.ep.UseTelemetry(reg)

	call := alice.Invite("bob")
	call.OnEstablished = func(c *Call) {
		clock.AfterFunc(10*time.Second, func() { alice.Hangup(c) })
	}
	noise := transport.NewSim(net, "noise:5060")
	noise.Send("alice:5060", []byte("not sip"))
	noise.Send("bob:5060", []byte("SIP/2.0 486 Busy Here\r\nVia: SIP/2.0/UDP noise:5060;branch=z9hG4bKstray\r\n"+
		"From: <sip:x@noise>;tag=1\r\nTo: <sip:bob@bob>\r\nCall-ID: stray\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"))
	// An OPTIONS to an address nobody serves is retransmitted, then
	// times out.
	probe := NewRequest(OPTIONS, NewURI("", "void", 5060),
		NameAddr{URI: NewURI("alice", "alice", 5060), Tag: "probe"}, NameAddr{URI: NewURI("", "void", 5060)},
		"probe", 1)
	alice.ep.SendRequest("void:5060", probe, func(*Message) {})
	sched.Run(time.Minute)
	if call.Cause() != EndCompleted {
		t.Fatalf("call did not complete: %v", call.Cause())
	}

	kind := func(key string) string {
		if code, err := strconv.Atoi(key); err == nil {
			return fmt.Sprintf("%dxx", code/100)
		}
		switch key {
		case "INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "MESSAGE", "OPTIONS":
			return key
		}
		return "other"
	}
	want := map[string]float64{}
	var st Stats
	for _, ep := range []*Endpoint{alice.ep, bob.ep} {
		s := ep.StatsSnapshot()
		for k, v := range s.Sent {
			want["sent/"+kind(k)] += float64(v)
		}
		for k, v := range s.Received {
			want["recv/"+kind(k)] += float64(v)
		}
		st.ParseErrors += s.ParseErrors
		st.StrayResponses += s.StrayResponses
		st.Retransmissions += s.Retransmissions
		st.Timeouts += s.Timeouts
	}
	if st.ParseErrors != 1 || st.StrayResponses != 1 || st.Timeouts != 1 || st.Retransmissions == 0 {
		t.Fatalf("Stats = %+v, want one parse error, stray response and timeout, and retransmissions", st)
	}

	snap := reg.Snapshot()
	f := snap.Family(mSIPMessages)
	if f == nil || len(f.Metrics) != 2*int(numMsgKinds) {
		t.Fatalf("%s: %v, want %d series", mSIPMessages, f, 2*numMsgKinds)
	}
	for _, m := range f.Metrics {
		var dir, k string
		for _, l := range m.Labels {
			switch l.Key {
			case "dir":
				dir = l.Value
			case "kind":
				k = l.Value
			}
		}
		if got := *m.Value; got != want[dir+"/"+k] {
			t.Errorf("%s{dir=%q,kind=%q} = %v, want %v", mSIPMessages, dir, k, got, want[dir+"/"+k])
		}
		delete(want, dir+"/"+k)
	}
	if len(want) != 0 {
		t.Errorf("tallied kinds with no series: %v", want)
	}
	for name, v := range map[string]uint64{
		mSIPParseErrs: st.ParseErrors, mSIPStray: st.StrayResponses,
		mSIPRetrans: st.Retransmissions, mSIPTimeouts: st.Timeouts,
	} {
		if got := snap.Scalar(name); got != float64(v) {
			t.Errorf("%s = %v, want %d", name, got, v)
		}
	}
}

// TestMessageKinds pins the kind label each method and status class
// lands under.
func TestMessageKinds(t *testing.T) {
	for m, want := range map[Method]string{
		INVITE: "INVITE", ACK: "ACK", BYE: "BYE", CANCEL: "CANCEL", REGISTER: "REGISTER",
		MESSAGE: "MESSAGE", OPTIONS: "OPTIONS", "SUBSCRIBE": "other",
	} {
		if got := msgKindNames[methodKind(m)]; got != want {
			t.Errorf("methodKind(%s) = %s, want %s", m, got, want)
		}
	}
	for code, want := range map[int]string{
		100: "1xx", 200: "2xx", 302: "3xx", 404: "4xx", 503: "5xx", 603: "6xx", 700: "other",
	} {
		if got := msgKindNames[statusKind(code)]; got != want {
			t.Errorf("statusKind(%d) = %s, want %s", code, got, want)
		}
	}
}
