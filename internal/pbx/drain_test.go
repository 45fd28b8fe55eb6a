package pbx

import (
	"testing"
	"time"

	"repro/internal/sip"
	"repro/internal/telemetry"
)

func drainHistCount(reg *telemetry.Registry, t *testing.T) uint64 {
	t.Helper()
	f := reg.Snapshot().Family("pbx_drain_duration_seconds")
	if f == nil {
		t.Fatal("pbx_drain_duration_seconds not registered")
	}
	var total uint64
	for _, m := range f.Metrics {
		if m.Count != nil {
			total += *m.Count
		}
	}
	return total
}

// TestDrainSemantics pins the graceful-drain contract: after Drain(),
// new INVITEs get 503 + Retry-After while the in-flight call runs to
// normal completion; the drain finishes when the last channel
// releases, recording exactly one drain-duration sample; and no trace
// span stays open.
func TestDrainSemantics(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 3, Config{Telemetry: reg})
	caller, second := r.phones[0], r.phones[2]

	// Establish a call, then drain mid-call.
	call := caller.Invite("u1")
	var established bool
	call.OnEstablished = func(c *sip.Call) {
		established = true
		caller.Endpoint().Clock().AfterFunc(30*time.Second, func() { caller.Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + 5*time.Second)
	if !established {
		t.Fatal("call never established")
	}
	if r.server.Draining() || r.server.Drained() {
		t.Fatal("server draining before Drain()")
	}

	r.sched.At(r.sched.Now()+time.Second, func(time.Duration) { r.server.Drain() })
	// A new INVITE placed while draining must bounce with 503 +
	// Retry-After, without touching the channel pool.
	var rejected *sip.Call
	r.sched.At(r.sched.Now()+3*time.Second, func(time.Duration) {
		rejected = second.Invite("u1")
	})
	r.sched.Run(r.sched.Now() + 10*time.Second)

	if !r.server.Draining() {
		t.Fatal("server not draining after Drain()")
	}
	if rejected == nil || rejected.State() != sip.CallTerminated {
		t.Fatal("drained INVITE did not terminate")
	}
	if rejected.Cause() != sip.EndRejected || rejected.RejectStatus() != 503 {
		t.Fatalf("drained INVITE: cause=%v status=%d, want rejected/503",
			rejected.Cause(), rejected.RejectStatus())
	}
	if rejected.RetryAfter() != drainRetryAfter {
		t.Errorf("Retry-After = %d, want %d", rejected.RetryAfter(), drainRetryAfter)
	}
	// The established call is still up: drain is graceful.
	if r.server.ActiveChannels() != 1 {
		t.Fatalf("in-flight call lost its channel: active=%d", r.server.ActiveChannels())
	}
	if r.server.Drained() {
		t.Fatal("drain reported complete with a call still up")
	}
	if got := drainHistCount(reg, t); got != 0 {
		t.Fatalf("drain-duration samples before completion: %d", got)
	}

	// Let the in-flight call hang up; the drain then completes.
	r.sched.Run(r.sched.Now() + time.Minute)
	if !r.server.Drained() {
		t.Fatal("drain never completed after last call ended")
	}
	if r.server.ActiveChannels() != 0 {
		t.Fatalf("channels leaked: %d", r.server.ActiveChannels())
	}

	c := r.server.CountersSnapshot()
	if c.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (in-flight call finished normally)", c.Completed)
	}
	if c.DrainRejected != 1 || c.Blocked != 1 {
		t.Errorf("DrainRejected=%d Blocked=%d, want 1/1", c.DrainRejected, c.Blocked)
	}
	if got := drainHistCount(reg, t); got != 1 {
		t.Errorf("drain-duration samples = %d, want exactly 1", got)
	}
	if c.Ended() != c.Attempts {
		t.Errorf("call conservation: %d attempts vs %d outcomes after drain", c.Attempts, c.Ended())
	}

	// OPTIONS (the health-probe method) answers 503 while draining, so
	// a balancer organically pulls a draining backend from rotation.
	snap := reg.Snapshot()
	if v := snap.Scalar("pbx_draining"); v != 1 {
		t.Errorf("pbx_draining gauge = %v, want 1", v)
	}
	if v := snap.Scalar("pbx_drain_rejected_total"); v != 1 {
		t.Errorf("pbx_drain_rejected_total = %v, want 1", v)
	}
}

// TestDrainIdleCompletesImmediately: draining an idle server finishes
// at the Drain() call itself.
func TestDrainIdleCompletesImmediately(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 1, Config{Telemetry: reg})
	r.server.Drain()
	if !r.server.Drained() {
		t.Fatal("idle drain did not complete immediately")
	}
	if got := drainHistCount(reg, t); got != 1 {
		t.Errorf("drain-duration samples = %d, want 1", got)
	}
}
