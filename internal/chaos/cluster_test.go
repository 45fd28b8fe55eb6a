package chaos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pbx"
	"repro/internal/sipp"
	"repro/internal/telemetry"
)

// lostRecords counts the LOST records among a backend's committed CDRs:
// the calls recovery closed after a crash.
func lostRecords(b Backend) int {
	n := 0
	for _, c := range b.Committed {
		if c.Disposition == pbx.Lost {
			n++
		}
	}
	return n
}

// TestClusterConservationCountsThrottled: a call the client held back
// on an advertised overload window is one of an attempt's outcomes in
// a cluster run as in a single-server one (ladder rung 3 behind a
// balancer).
func TestClusterConservationCountsThrottled(t *testing.T) {
	res := &Result{Load: sipp.Results{Attempts: 3, Established: 2, Throttled: 1}}
	if bad := res.CheckInvariants(); len(bad) > 0 {
		t.Errorf("attempts 3 = established 2 + throttled 1: %v", bad)
	}
	res.Load.Throttled = 0
	if bad := res.CheckInvariants(); len(bad) != 1 {
		t.Errorf("attempts 3 with 2 outcomes: %v", bad)
	}
}

// eventAt returns the first event of the given kind for the given
// backend, and whether one exists.
func eventAt(events []cluster.Event, kind string, backend int) (cluster.Event, bool) {
	for _, e := range events {
		if e.Kind == kind && e.Backend == backend {
			return e, true
		}
	}
	return cluster.Event{}, false
}

// TestCrashFailoverScenario is the acceptance criterion for the
// fault-tolerance plane: crash 1 of 3 backends at peak load and prove,
// from the deterministic timeline, that the health probes marked it
// down within the detection threshold, placement failed over to the
// survivors, the restart re-admitted it, and every call interrupted by
// the crash is accounted as exactly one LOST CDR.
func TestCrashFailoverScenario(t *testing.T) {
	sc := CrashFailover(1)
	res := mustRun(t, sc)

	t.Logf("timeline: %s", res.TimelineSummary())
	t.Logf("load: attempts=%d established=%d blocked=%d failed=%d retries=%d",
		res.Load.Attempts, res.Load.Established, res.Load.Blocked, res.Load.Failed, res.Load.Retries)

	if res.Load.Established == 0 {
		t.Fatal("no calls established")
	}

	crash, ok := eventAt(res.Events, "crash", 0)
	if !ok {
		t.Fatal("no crash event for backend 0")
	}
	down, ok := eventAt(res.Events, "down", 0)
	if !ok {
		t.Fatal("health probes never marked the crashed backend down")
	}
	// Detection must land within the probe budget: FailThreshold strikes
	// of (interval + timeout), plus one interval of phase slack.
	h := sc.Farm.Health
	budget := time.Duration(h.FailThreshold)*(h.ProbeInterval+h.ProbeTimeout) + h.ProbeInterval
	if lat := down.At - crash.At; lat <= 0 || lat > budget {
		t.Errorf("markdown latency %v outside (0, %v]", lat, budget)
	}
	restart, ok := eventAt(res.Events, "restart", 0)
	if !ok {
		t.Fatal("no restart event for backend 0")
	}
	up, ok := eventAt(res.Events, "up", 0)
	if !ok {
		t.Fatal("restarted backend never probed back up")
	}
	if up.At <= restart.At {
		t.Errorf("up event at %v not after restart at %v", up.At, restart.At)
	}
	if up.At-restart.At > budget {
		t.Errorf("re-admission latency %v exceeds probe budget %v", up.At-restart.At, budget)
	}

	// Crash-consistent CDR recovery: the calls in flight at the crash
	// come back as exactly that many LOST records, no more, no fewer.
	b0 := res.Backends[0]
	if b0.OpenAtCrash == 0 {
		t.Fatal("crash at peak caught no calls in flight; scenario is miscalibrated")
	}
	if n := lostRecords(b0); n != b0.OpenAtCrash {
		t.Errorf("recovered %d LOST CDRs, want %d (open at crash)", n, b0.OpenAtCrash)
	}
	if b0.Crashes != 1 {
		t.Errorf("backend 0 incarnations record %d crashes, want 1", b0.Crashes)
	}

	// Failover: the balancer redirected INVITEs while a backend was
	// down, and the survivors carried load during the outage.
	if res.Balancer.Failovers == 0 {
		t.Error("balancer recorded no failover redirects during the outage")
	}
	for i := 1; i < 3; i++ {
		if res.Backends[i].Counters.Attempts == 0 {
			t.Errorf("survivor pbx%d carried no calls", i+1)
		}
	}
	// Capacity loss shows up as blocking: with 16 of 24 channels left,
	// offered load that fit before the crash now overflows.
	if res.Load.Blocked == 0 {
		t.Error("losing a third of the channel pool produced no blocking")
	}

	// The blackholed backend shows up as no-route traffic.
	if res.NoRoute == 0 {
		t.Error("crash produced no no-route packets; sockets were not dropped")
	}

	// Telemetry mirrors the timeline: transitions counted, LOST CDRs
	// exported, failovers visible to scrapers.
	snap := res.Telemetry
	if v := labeledValue(snap, "cluster_backend_transitions_total", "to", "down"); v < 1 {
		t.Errorf("cluster_backend_transitions_total{to=down} = %v, want >= 1", v)
	}
	if v := labeledValue(snap, "cluster_backend_transitions_total", "to", "up"); v < 1 {
		t.Errorf("cluster_backend_transitions_total{to=up} = %v, want >= 1", v)
	}
	if v := labeledValue(snap, "pbx_cdr_total", "disposition", "lost"); int(v) != lostRecords(b0) {
		t.Errorf("pbx_cdr_total{disposition=lost} = %v, want %d", v, lostRecords(b0))
	}
	if v := snap.Scalar("cluster_failovers_total"); uint64(v) != res.Balancer.Failovers {
		t.Errorf("cluster_failovers_total = %v, want %d", v, res.Balancer.Failovers)
	}
}

// labeledValue sums a family's metrics whose label set contains
// key=val.
func labeledValue(snap telemetry.Snapshot, name, key, val string) float64 {
	f := snap.Family(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, m := range f.Metrics {
		for _, l := range m.Labels {
			if l.Key == key && l.Value == val && m.Value != nil {
				total += *m.Value
			}
		}
	}
	return total
}

// histCount returns the total sample count of the named histogram
// family.
func histCount(snap telemetry.Snapshot, name string) uint64 {
	f := snap.Family(name)
	if f == nil {
		return 0
	}
	var total uint64
	for _, m := range f.Metrics {
		if m.Count != nil {
			total += *m.Count
		}
	}
	return total
}

// TestCrashMediaScenario proves the crash path under live RTP: relay
// ports go dark with the process, the callee-side media watchdog reaps
// the orphaned legs, and the accounting still balances.
func TestCrashMediaScenario(t *testing.T) {
	res := mustRun(t, CrashMedia(3))
	t.Logf("timeline: %s", res.TimelineSummary())
	if res.Load.Established == 0 {
		t.Fatal("no calls established")
	}
	if res.Load.RTPReceived == 0 {
		t.Fatal("no RTP flowed through the relays")
	}
	b0 := res.Backends[0]
	if b0.Crashes != 1 {
		t.Errorf("backend 0 recorded %d crashes, want 1", b0.Crashes)
	}
	if n := lostRecords(b0); n != b0.OpenAtCrash {
		t.Errorf("recovered %d LOST CDRs, want %d (open at crash)", n, b0.OpenAtCrash)
	}
}

// TestDrainRollingScenario exercises administrative drain under load
// at cluster scope: the draining backend 503s new INVITEs (counted
// separately from capacity blocking), its established calls finish,
// and the probe plane pulls it from rotation because its OPTIONS
// answer 503 while draining.
func TestDrainRollingScenario(t *testing.T) {
	res := mustRun(t, DrainRolling(5))
	t.Logf("timeline: %s", res.TimelineSummary())

	if _, ok := eventAt(res.Events, "drain", 0); !ok {
		t.Fatal("no drain event for backend 0")
	}
	if _, ok := eventAt(res.Events, "down", 0); !ok {
		t.Error("probes never pulled the draining backend from rotation")
	}
	b0 := res.Backends[0]
	if b0.Counters.Attempts == 0 {
		t.Fatal("backend 0 carried no calls before the drain")
	}
	// Drain is not a crash: nothing lost, journal balanced, and the
	// drain completed (no channels held at end of run).
	if b0.Journal.Lost != 0 {
		t.Errorf("drain lost %d calls; drain must let calls finish", b0.Journal.Lost)
	}
	if b0.ActiveChannels != 0 {
		t.Errorf("draining backend still holds %d channels", b0.ActiveChannels)
	}
	// The drain shows in telemetry: a completed drain-duration sample.
	if histCount(res.Telemetry, "pbx_drain_duration_seconds") == 0 {
		t.Error("pbx_drain_duration_seconds recorded no completed drain")
	}
}

// TestGoldenCrashTimeline pins the failover timeline of the crash
// scenario: same config + same seed must give a bit-identical sequence
// of crash/down/restart/up events and identical loss/failover
// accounting, run after run. This is the determinism contract extended
// across process crashes.
func TestGoldenCrashTimeline(t *testing.T) {
	first := mustRun(t, CrashFailover(7))
	second := mustRun(t, CrashFailover(7))

	a, b := first.TimelineSummary(), second.TimelineSummary()
	if a != b {
		t.Fatalf("crash timeline not reproducible:\n run1: %s\n run2: %s", a, b)
	}
	t.Logf("timeline: %s", a)

	const golden = "crash@20s#0;down@25.038s#0;restart@38s#0;up@38.04s#0|redirects=143 failovers=40 unroutable=0 repins=0|lost=5 recovered=106|attempts=117 est=111 blocked=6 failed=0"
	if a != golden {
		t.Errorf("crash timeline drifted from golden pin:\n  got:  %s\n  want: %s\n"+
			"If the change is intentional, update the golden constant.", a, golden)
	}
	// Structural floor independent of the literal: the pinned timeline
	// must contain the full crash→down→restart→up arc for backend 0.
	for _, want := range []string{"crash@", "down@", "restart@", "up@"} {
		if !strings.Contains(a, want) {
			t.Errorf("pinned timeline missing %q event", want)
		}
	}
}

// TestFarmUnderEveryOp runs one script of every op kind against a farm
// carrying calls and registrations at once: a backend partitioned,
// another crashed and restarted, a third drained, and a re-REGISTER
// avalanche through the balancer — and the books still balance, the
// store holding every endpoint and both call phones.
func TestFarmUnderEveryOp(t *testing.T) {
	sc := CrashFailover(3)
	sc.Register = sipp.RegisterConfig{
		Endpoints: 200, Expires: 10 * time.Minute, Ramp: 5 * time.Second,
		Window: 50 * time.Second, DisableRefresh: true,
	}
	sc.Fault.Ops = append(sc.Fault.Ops,
		Op{At: 10 * time.Second, Kind: Partition, Backend: 2, For: 3 * time.Second},
		Op{At: 42 * time.Second, Kind: Avalanche, For: 2 * time.Second},
		Op{At: 50 * time.Second, Kind: Drain, Backend: 1},
	)
	res := mustRun(t, sc)
	t.Logf("timeline:\n%s", res.TimelineSummary())
	for _, want := range []cluster.Event{{Kind: "crash"}, {Kind: "restart"}, {Kind: "drain", Backend: 1}} {
		if _, ok := eventAt(res.Events, want.Kind, want.Backend); !ok {
			t.Errorf("no %s event for backend %d", want.Kind, want.Backend)
		}
	}
	if res.Register.Reregisters != sc.Register.Endpoints {
		t.Errorf("avalanche re-registered %d of %d", res.Register.Reregisters, sc.Register.Endpoints)
	}
	if res.Registered != sc.Register.Endpoints+2 {
		t.Errorf("store holds %d users, want %d endpoints + 2 phones", res.Registered, sc.Register.Endpoints)
	}
}
