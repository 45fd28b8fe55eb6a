package cluster

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/erlang"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/transport"
)

// clusterRig builds a k-server cluster plus a load generator pointed
// at the balancer.
func clusterRig(t *testing.T, servers, perServerChannels int, policy Policy, genCfg sipp.Config) (*netsim.Scheduler, *Cluster, *sipp.Generator) {
	t.Helper()
	r := rig.NewSim(1, 0, nil, stats.NewRNG(91), netsim.LinkProfile{Delay: time.Millisecond})
	sched := r.Group.Shard(0)
	cl := New(r, Config{
		Servers:   servers,
		PerServer: pbx.Config{MaxChannels: perServerChannels},
		Policy:    policy,
	})
	cl.Directory().AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	cl.Directory().AddUser(directory.User{Username: "uas", Password: "pw-uas"})
	gen := r.Generator("sippc", "sipps", cl.Addr(), genCfg)
	return sched, cl, gen
}

func run(t *testing.T, sched *netsim.Scheduler, gen *sipp.Generator) sipp.Results {
	t.Helper()
	var out sipp.Results
	done := false
	gen.Start(func(r sipp.Results, err error) {
		if err != nil {
			t.Error(err)
		}
		out, done = r, true
	})
	for i := 0; i < 50 && !done; i++ {
		sched.Run(sched.Now() + 10*time.Minute)
	}
	if !done {
		t.Fatal("generator did not finish")
	}
	return out
}

func TestClusterBasicCallFlow(t *testing.T) {
	sched, cl, gen := clusterRig(t, 2, 100, RoundRobin, sipp.Config{
		Rate:   0.5,
		Window: 30 * time.Second,
		Hold:   20 * time.Second,
		Seed:   1,
	})
	res := run(t, sched, gen)
	if res.Established != res.Attempts || res.Attempts == 0 {
		t.Fatalf("established %d of %d", res.Established, res.Attempts)
	}
	bc := cl.CountersSnapshot()
	if bc.Redirects != uint64(res.Attempts) {
		t.Errorf("redirects = %d, attempts = %d", bc.Redirects, res.Attempts)
	}
	if bc.RegistersProxied < 2 {
		t.Errorf("registers proxied = %d", bc.RegistersProxied)
	}
	// Round-robin: both backends carried calls.
	var tot pbx.Counters
	for i := range cl.Backends() {
		for _, srv := range cl.Incarnations(i) {
			tot.Add(srv.CountersSnapshot())
		}
	}
	if int(tot.Established) != res.Established {
		t.Errorf("backend established %d vs %d", tot.Established, res.Established)
	}
	for i, b := range cl.Backends() {
		if b.CountersSnapshot().Attempts == 0 {
			t.Errorf("backend %d idle under round-robin", i)
		}
	}
}

func TestClusterRegistrationSharedDirectory(t *testing.T) {
	sched, cl, gen := clusterRig(t, 3, 10, RoundRobin, sipp.Config{
		Rate: 0.1, Window: 10 * time.Second, Hold: 5 * time.Second, Seed: 2,
	})
	res := run(t, sched, gen)
	if res.Failed > 0 {
		t.Errorf("failures with shared directory: %+v", res)
	}
	// The shared directory holds both registrations regardless of
	// which backend handled them.
	if n := cl.Directory().Registered(sched.Now()); n != 2 {
		t.Errorf("registered bindings = %d, want 2", n)
	}
}

func TestClusterPoolingBeatsSplitting(t *testing.T) {
	// Offered load sized so single servers overflow: A = 50 against
	// two 30-channel servers. Round-robin splits into two independent
	// A/2=25-on-30 systems; least-busy approximates one pooled
	// 60-channel system. Pooled blocking must be no worse.
	cfg := sipp.Config{
		Rate:   50.0 / 20,
		Window: 120 * time.Second,
		Warmup: 40 * time.Second,
		Hold:   20 * time.Second,
		Seed:   3,
	}
	schedRR, _, genRR := clusterRig(t, 2, 30, RoundRobin, cfg)
	rr := run(t, schedRR, genRR)
	schedLB, _, genLB := clusterRig(t, 2, 30, LeastBusy, cfg)
	lb := run(t, schedLB, genLB)

	if lb.BlockingProbability > rr.BlockingProbability+0.02 {
		t.Errorf("least-busy Pb %.4f worse than round-robin %.4f",
			lb.BlockingProbability, rr.BlockingProbability)
	}
	// Both sit near their theory anchors: pooled B(50,60) ≈ 3.6%,
	// split B(25,30) ≈ 5.3% — loose bounds, single replication.
	pooled := erlang.B(50, 60)
	if lb.BlockingProbability > pooled+0.08 {
		t.Errorf("least-busy Pb %.4f far above pooled Erlang-B %.4f",
			lb.BlockingProbability, pooled)
	}
}

func TestClusterScalingReducesBlocking(t *testing.T) {
	// A = 40 Erlangs against k×20-channel clusters: more servers,
	// less blocking.
	cfg := sipp.Config{
		Rate:   2,
		Window: 90 * time.Second,
		Warmup: 30 * time.Second,
		Hold:   20 * time.Second,
		Seed:   4,
	}
	var pbs []float64
	for _, k := range []int{1, 2, 3} {
		sched, _, gen := clusterRig(t, k, 20, LeastBusy, cfg)
		res := run(t, sched, gen)
		pbs = append(pbs, res.BlockingProbability)
	}
	if !(pbs[0] > pbs[1] && pbs[1] >= pbs[2]) {
		t.Errorf("blocking not decreasing with servers: %v", pbs)
	}
	if pbs[0] < 0.20 {
		t.Errorf("single 20-channel server at A=40 should block heavily: %v", pbs[0])
	}
	if pbs[2] > 0.05 {
		t.Errorf("three servers (60 channels) at A=40 should rarely block: %v", pbs[2])
	}
}

// TestBalancerRejectsUnknownMethods: the balancer holds no dialog, so
// a BYE finds none (481, RFC 3261 §12.2.2); a method it does not
// implement gets 501 (§8.2.1).
func TestBalancerRejectsUnknownMethods(t *testing.T) {
	r := rig.NewSim(1, 0, nil, stats.NewRNG(5), netsim.LinkProfile{})
	sched, net, clock := r.Group.Shard(0), r.Net, r.Clock("x")
	cl := New(r, Config{Servers: 1})
	defer cl.Close()
	ep := sip.NewEndpoint(transport.NewSim(net, "x:5060"), clock)
	for _, c := range []struct {
		method sip.Method
		want   int
	}{{sip.BYE, 481}, {sip.MESSAGE, sip.StatusNotImplemented}, {"INFO", sip.StatusNotImplemented}} {
		req := sip.NewRequest(c.method, sip.NewURI("u", "balancer", 5060),
			sip.NameAddr{URI: sip.NewURI("a", "x", 5060), Tag: "t"},
			sip.NameAddr{URI: sip.NewURI("u", "balancer", 5060)}, "cid-"+string(c.method), 1)
		var status int
		ep.SendRequest(cl.Addr(), req, func(r *sip.Message) { status = r.StatusCode })
		sched.Run(sched.Now() + time.Minute)
		if status != c.want {
			t.Errorf("%s to balancer got %d, want %d", c.method, status, c.want)
		}
	}
}
