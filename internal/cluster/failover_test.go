package cluster

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// failoverRig is a bare cluster (no load generator) with fast probes,
// for exercising the liveness plane directly.
func failoverRig(t *testing.T, servers int) (*netsim.Scheduler, *netsim.Network, *Cluster) {
	t.Helper()
	r := rig.NewSim(1, 0, nil, stats.NewRNG(17), netsim.LinkProfile{Delay: time.Millisecond})
	sched, net := r.Group.Shard(0), r.Net
	cl := New(r, Config{
		Servers:   servers,
		PerServer: pbx.Config{MaxChannels: 10},
		Policy:    LeastBusy,
		Health: HealthConfig{
			ProbeInterval: time.Second,
			ProbeTimeout:  time.Second,
			FailThreshold: 3,
			SlowStart:     2 * time.Second,
		},
	})
	cl.Directory().AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	return sched, net, cl
}

// TestHealthProbeMarkdownAndRecovery pins the probe state machine:
// a crashed backend is marked down after FailThreshold consecutive
// probe failures and re-admitted after restart, with the transitions
// on the event timeline in order.
func TestHealthProbeMarkdownAndRecovery(t *testing.T) {
	sched, _, cl := failoverRig(t, 3)

	sched.Run(5 * time.Second)
	if cl.UpCount() != 3 {
		t.Fatalf("up count = %d before any fault", cl.UpCount())
	}

	crashAt := sched.Now()
	cl.CrashBackend(1)
	if !cl.Crashed(1) {
		t.Fatal("CrashBackend did not mark the node crashed")
	}
	if !cl.BackendUp(1) {
		t.Fatal("crash must not mark the backend down directly; detection is the probes' job")
	}
	// 3 strikes × (1s interval + 1s timeout) + phase slack.
	sched.Run(crashAt + 8*time.Second)
	if cl.BackendUp(1) {
		t.Fatal("probes never marked the crashed backend down")
	}
	if cl.UpCount() != 2 {
		t.Errorf("up count = %d with one backend dead, want 2", cl.UpCount())
	}

	recovered := cl.RestartBackend(1)
	if len(recovered) != 0 {
		t.Errorf("idle crash recovered %d CDRs, want 0", len(recovered))
	}
	restartAt := sched.Now()
	sched.Run(restartAt + 5*time.Second)
	if !cl.BackendUp(1) {
		t.Fatal("restarted backend never probed back up")
	}

	var kinds []string
	for _, e := range cl.Events() {
		if e.Backend == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{"crash", "down", "restart", "up"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	if fails := cl.CountersSnapshot().ProbeFailures; fails < 3 {
		t.Errorf("probe failures = %d, want >= 3", fails)
	}
}

// TestRegisterRepinsAwayFromDownBackend is the pinning fix: a user
// whose hash-pinned backend is down must be re-pinned to a live one so
// registration still succeeds, and the re-pin is counted.
func TestRegisterRepinsAwayFromDownBackend(t *testing.T) {
	sched, net, cl := failoverRig(t, 3)
	clock := transport.SimClock{Sched: sched}
	sched.Run(2 * time.Second)

	pinned := cl.backendFor("uac").idx
	if cl.CountersSnapshot().Repins != 0 {
		t.Fatal("re-pin counted with every backend up")
	}

	cl.CrashBackend(pinned)
	sched.Run(sched.Now() + 8*time.Second)
	if cl.BackendUp(pinned) {
		t.Fatal("pinned backend not marked down")
	}

	phone := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(net, "ph:5060"), clock),
		sip.PhoneConfig{User: "uac", Password: "pw-uac", Proxy: cl.Addr()})
	var ok, done bool
	phone.Register(time.Hour, func(success bool) { ok, done = success, true })
	sched.Run(sched.Now() + 30*time.Second)
	if !done || !ok {
		t.Fatalf("register through down pin: done=%v ok=%v", done, ok)
	}
	if repinned := cl.backendFor("uac").idx; repinned == pinned {
		t.Errorf("backendFor still returns down backend %d", pinned)
	}
	if cl.CountersSnapshot().Repins == 0 {
		t.Error("re-pin not counted")
	}
}

// TestInviteUnroutableWhenAllBackendsDown: with every backend dead the
// balancer sheds INVITEs with 503 + Retry-After sized to the probe
// interval, and counts them as unroutable.
func TestInviteUnroutableWhenAllBackendsDown(t *testing.T) {
	sched, net, cl := failoverRig(t, 2)
	clock := transport.SimClock{Sched: sched}
	sched.Run(2 * time.Second)
	cl.CrashBackend(0)
	cl.CrashBackend(1)
	sched.Run(sched.Now() + 8*time.Second)
	if cl.UpCount() != 0 {
		t.Fatalf("up count = %d after crashing everything", cl.UpCount())
	}

	ep := sip.NewEndpoint(transport.NewSim(net, "x:5060"), clock)
	inv := sip.NewRequest(sip.INVITE, sip.NewURI("uas", "balancer", 5060),
		sip.NameAddr{URI: sip.NewURI("uac", "x", 5060), Tag: "t"},
		sip.NameAddr{URI: sip.NewURI("uas", "balancer", 5060)}, "cid-unroutable", 1)
	var resp *sip.Message
	ep.SendRequest(cl.Addr(), inv, func(r *sip.Message) {
		if r.StatusCode >= 200 {
			resp = r
		}
	})
	sched.Run(sched.Now() + time.Minute)
	if resp == nil || resp.StatusCode != 503 {
		t.Fatalf("INVITE with no live backend: %+v, want 503", resp)
	}
	if resp.RetryAfter <= 0 {
		t.Errorf("503 carries no Retry-After hint")
	}
	if cl.CountersSnapshot().UnroutableInvites == 0 {
		t.Error("unroutable INVITE not counted")
	}
}
