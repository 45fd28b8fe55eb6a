package pbx

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestCancelPropagatesThroughBridge: a caller that gives up while the
// callee rings cancels both legs and ends its attempt "canceled" —
// rung, never set up — and the channel is free for the next call.
func TestCancelPropagatesThroughBridge(t *testing.T) {
	// A callee that rings for 20 s leaves room to cancel.
	reg := telemetry.NewRegistry()
	r2 := newRigWithAnswerDelay(t, 20*time.Second, Config{Telemetry: reg})
	caller := r2.phones[0]

	var calleeCall *sip.Call
	r2.phones[1].OnIncoming = func(c *sip.Call) { calleeCall = c }

	call := caller.Invite("u1")
	call.OnRinging = func(c *sip.Call) {
		r2.clock.AfterFunc(3*time.Second, func() { caller.Cancel(c) })
	}
	r2.sched.Run(5 * time.Minute)

	if call.State() != sip.CallTerminated || call.Cause() != sip.EndCanceled {
		t.Fatalf("caller state=%v cause=%v", call.State(), call.Cause())
	}
	if calleeCall == nil || calleeCall.Cause() != sip.EndCanceled {
		t.Errorf("callee did not see the cancel: %+v", calleeCall)
	}
	c := r2.server.CountersSnapshot()
	if c.Canceled != 1 {
		t.Errorf("canceled = %d", c.Canceled)
	}
	if c.Established != 0 || c.Completed != 0 {
		t.Errorf("counters: %+v", c)
	}
	if r2.server.ActiveChannels() != 0 {
		t.Errorf("channel leaked after cancel: %d", r2.server.ActiveChannels())
	}
	if n := series(reg.Snapshot(), mCallsTotal, "outcome", "canceled"); n != 1 {
		t.Errorf("%s{outcome=\"canceled\"} = %v", mCallsTotal, n)
	}
	wantTiming(t, reg, mPostDial, 1, 0.002)
	wantTiming(t, reg, mCallSetup, 0, 0)
	wantTiming(t, reg, mCallTeardown, 0, 0)
	if got := stagesOf(r2.server, call.CallID); !slices.Equal(got, []string{"invite", "admitted", "ringing", "canceled"}) {
		t.Errorf("flight stages %v", got)
	}
	checkConserved(t, r2.server, reg)
	// The channel must be reusable immediately.
	again := caller.Invite("u1")
	var ok bool
	again.OnEstablished = func(c *sip.Call) { ok = true; caller.Hangup(c) }
	r2.sched.Run(r2.sched.Now() + 5*time.Minute)
	if !ok {
		t.Error("subsequent call failed after a canceled one")
	}
}

// newRigWithAnswerDelay builds a 2-phone rig on a server configured by
// cfg whose callee rings for the given delay before auto-answering.
func newRigWithAnswerDelay(t *testing.T, delay time.Duration, cfg Config) *rig {
	t.Helper()
	r := newRig(t, 1, cfg)
	host := "slowhost"
	user := "u1"
	r.server.Directory().Provision("u", 1, 1)
	phone := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, host+":5060"), r.clock),
		sip.PhoneConfig{User: user, Password: "pw-" + user, Proxy: "pbx:5060",
			MediaPort: 4000, AnswerDelay: delay})
	phone.Register(time.Hour, nil)
	r.phones = append(r.phones, phone)
	r.sched.Run(r.sched.Now() + 5*time.Second)
	if !phone.Registered() {
		t.Fatal("slow phone failed to register")
	}
	return r
}
