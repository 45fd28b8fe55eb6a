package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestClusterFamiliesReadCounters drives the balancer through a crash,
// a re-pin, a failover redirect, a restart and overload-stamped probes,
// and checks after each step that every cluster_* series reads what
// CountersSnapshot and BackendUp say.
func TestClusterFamiliesReadCounters(t *testing.T) {
	r := rig.NewSim(1, 0, nil, stats.NewRNG(17), netsim.LinkProfile{Delay: time.Millisecond})
	sched, clock := r.Group.Shard(0), transport.SimClock{Sched: r.Group.Shard(0)}
	reg := telemetry.NewRegistry()
	cl := New(r, Config{
		Servers: 3,
		PerServer: pbx.Config{
			MaxChannels: 10,
			// Under the idle CPU model the ladder reaches its throttle
			// rung at once, so every probe answer carries the window.
			Degradation: &pbx.DegradationConfig{Enter: [4]float64{0.01, 0.02, 0.03, 0.99}},
		},
		Policy: LeastBusy,
		Health: HealthConfig{
			ProbeInterval: time.Second,
			ProbeTimeout:  time.Second,
			FailThreshold: 3,
			SlowStart:     2 * time.Second,
		},
		Telemetry: reg,
	})
	cl.Directory().AddUser(directory.User{Username: "uac", Password: "pw-uac"})

	check := func(step string) {
		t.Helper()
		c := cl.CountersSnapshot()
		snap := reg.Snapshot()
		series := func(name, key, value string) float64 {
			for _, m := range snap.Family(name).Metrics {
				if len(m.Labels) == 1 && m.Labels[0].Key == key && m.Labels[0].Value == value {
					return *m.Value
				}
			}
			t.Fatalf("%s: no %s=%q series", name, key, value)
			return 0
		}
		for _, w := range []struct {
			got  float64
			want uint64
			name string
		}{
			{snap.Scalar(mClusterRedirects), c.Redirects, mClusterRedirects},
			{snap.Scalar(mClusterFailovers), c.Failovers, mClusterFailovers},
			{snap.Scalar(mClusterRepins), c.Repins, mClusterRepins},
			{snap.Scalar(mClusterProbeFailures), c.ProbeFailures, mClusterProbeFailures},
			{series(mClusterTransitions, "to", "down"), c.BackendDowns, mClusterTransitions + "{to=down}"},
			{series(mClusterTransitions, "to", "up"), c.BackendUps, mClusterTransitions + "{to=up}"},
			{snap.Scalar(mClusterOverloads), c.OverloadSignals, mClusterOverloads},
		} {
			if w.got != float64(w.want) {
				t.Errorf("%s: %s = %v, want %d", step, w.name, w.got, w.want)
			}
		}
		for i := 0; i < 3; i++ {
			want := 0.0
			if cl.BackendUp(i) {
				want = 1
			}
			if got := series(mClusterBackendUp, "backend", fmt.Sprintf("pbx%d", i+1)); got != want {
				t.Errorf("%s: %s{pbx%d} = %v, want %v", step, mClusterBackendUp, i+1, got, want)
			}
		}
	}

	sched.Run(10 * time.Second)
	check("steady")
	pinned := cl.backendFor("uac").idx
	cl.CrashBackend(pinned)
	sched.Run(sched.Now() + 8*time.Second)
	if cl.BackendUp(pinned) {
		t.Fatal("crashed backend never marked down")
	}
	check("down")

	// A REGISTER re-pins off the dead backend; an INVITE is redirected
	// while it is down.
	phone := sip.NewPhone(sip.NewEndpoint(transport.NewSim(r.Net, "ph:5060"), clock),
		sip.PhoneConfig{User: "uac", Password: "pw-uac", Proxy: cl.Addr()})
	phone.Register(time.Hour, nil)
	ep := sip.NewEndpoint(transport.NewSim(r.Net, "x:5060"), clock)
	inv := sip.NewRequest(sip.INVITE, sip.NewURI("uas", "balancer", 5060),
		sip.NameAddr{URI: sip.NewURI("uac", "x", 5060), Tag: "t"},
		sip.NameAddr{URI: sip.NewURI("uas", "balancer", 5060)}, "cid-failover", 1)
	ep.SendRequest(cl.Addr(), inv, func(*sip.Message) {})
	sched.Run(sched.Now() + 5*time.Second)
	check("failover")

	cl.RestartBackend(pinned)
	sched.Run(sched.Now() + 10*time.Second)
	if !cl.BackendUp(pinned) {
		t.Fatal("restarted backend never probed back up")
	}
	check("restart")

	c := cl.CountersSnapshot()
	if c.Redirects == 0 || c.Failovers == 0 || c.Repins == 0 || c.ProbeFailures == 0 ||
		c.BackendDowns == 0 || c.BackendUps == 0 || c.OverloadSignals == 0 {
		t.Errorf("a path went unexercised: %+v", c)
	}
}
