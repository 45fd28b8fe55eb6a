package chaos

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/erlang"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
)

func mustRun(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name, err)
	}
	if bad := res.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("scenario %s violated invariants: %v\n%s", sc.Name, bad, res.TimelineSummary())
	}
	return res
}

func TestSmokeScenario(t *testing.T) {
	res := mustRun(t, Smoke(1))
	if res.Load.Established == 0 {
		t.Fatal("smoke scenario established no calls")
	}
	if res.Goodput(0) != res.Load.Established {
		t.Errorf("goodput(0) = %d, want every established call (%d)",
			res.Goodput(0), res.Load.Established)
	}
	if res.Capture.Total == 0 || res.Capture.RTP == 0 {
		t.Error("capture saw no traffic")
	}
}

// TestOverloadControllerBeatsBaseline is the acceptance criterion: at
// 1.5× measured capacity with 2% loss, quality-weighted goodput with
// the occupancy controller strictly exceeds the hard-cap baseline, and
// both runs are bit-reproducible under the same seed.
func TestOverloadControllerBeatsBaseline(t *testing.T) {
	const seed = 42
	baseline := mustRun(t, OverloadBaseline(seed))
	controlled := mustRun(t, OverloadControlled(seed))

	bGood := baseline.Goodput(GoodMOS)
	cGood := controlled.Goodput(GoodMOS)
	t.Logf("baseline: established=%d goodput=%d cpu=[%.0f %.0f %.0f] dropped=%d",
		baseline.Load.Established, bGood, baseline.Backends[0].CPULo, baseline.Backends[0].CPUMean, baseline.Backends[0].CPUHi,
		baseline.Backends[0].Counters.DroppedPackets)
	t.Logf("controlled: established=%d goodput=%d retries=%d cpu=[%.0f %.0f %.0f] dropped=%d",
		controlled.Load.Established, cGood, controlled.Load.Retries,
		controlled.Backends[0].CPULo, controlled.Backends[0].CPUMean, controlled.Backends[0].CPUHi, controlled.Backends[0].Counters.DroppedPackets)

	if cGood <= bGood {
		t.Errorf("controller goodput %d does not strictly exceed baseline %d", cGood, bGood)
	}
	// The mechanism, not just the outcome: the baseline must actually
	// have saturated (post-knee RTP drops), and the controller must
	// have shed load early (blocking + Retry-After driven retries).
	if baseline.Backends[0].Counters.DroppedPackets == 0 {
		t.Error("baseline never crossed the CPU knee; scenario is miscalibrated")
	}
	if controlled.Load.Retries == 0 {
		t.Error("controller produced no client retries; Retry-After loop is dead")
	}
	if controlled.Backends[0].Counters.Blocked == 0 {
		t.Error("controller never shed load")
	}

	// Bit-reproducibility: identical seeds give identical runs.
	again := mustRun(t, OverloadControlled(seed))
	if !reflect.DeepEqual(controlled.Load, again.Load) {
		t.Error("controlled run not reproducible: generator results differ across same-seed runs")
	}
	if controlled.Backends[0].Counters != again.Backends[0].Counters {
		t.Errorf("controlled run not reproducible: counters %+v vs %+v",
			controlled.Backends[0].Counters, again.Backends[0].Counters)
	}
	if controlled.Capture != again.Capture {
		t.Error("controlled run not reproducible: wire captures differ")
	}
	if !reflect.DeepEqual(controlled.Series, again.Series) {
		t.Error("controlled run not reproducible: per-second series differ")
	}
	b2 := mustRun(t, OverloadBaseline(seed))
	if !reflect.DeepEqual(baseline.Load, b2.Load) || baseline.Backends[0].Counters != b2.Backends[0].Counters {
		t.Error("baseline run not reproducible across same-seed runs")
	}
}

func TestErlangBlockingTracksErlangB(t *testing.T) {
	res := mustRun(t, ErlangOperatingPoint(7))
	predicted := erlang.B(200, 165)
	measured := res.Load.BlockingProbability
	t.Logf("blocking: measured=%.4f erlang-B=%.4f (attempts=%d blocked=%d)",
		measured, predicted, res.Load.Attempts, res.Load.Blocked)
	if math.Abs(measured-predicted) > 0.05 {
		t.Errorf("measured blocking %.4f strays from Erlang-B %.4f by more than 5 points",
			measured, predicted)
	}
	if res.Backends[0].Counters.PeakChannels > 165 {
		t.Errorf("peak channels %d exceeded the configured capacity", res.Backends[0].Counters.PeakChannels)
	}
}

func TestSignalingPartitionHeals(t *testing.T) {
	res := mustRun(t, SignalingPartition(3))
	if res.NoRoute == 0 {
		t.Error("partition dropped nothing; injection did not happen")
	}
	// The blackout swallows INVITEs the caller keeps resending: it put
	// more of them on the wire, originals and retransmissions, than
	// the PBX ever received. Originals alone would not show it.
	wire := res.Caller.Sent["INVITE"] + res.Caller.Resent["INVITE"]
	handled := res.Backends[0].Signaling.Received["INVITE"]
	if wire <= handled {
		t.Errorf("caller's wire INVITEs %d <= PBX-received %d: no retransmissions across a 5s blackout",
			wire, handled)
	}
	// The blackout is well inside the transaction timeout: load placed
	// around it must still complete.
	if res.Load.Established == 0 {
		t.Fatal("no calls established around the partition")
	}
	if res.Load.Failed > res.Load.Attempts/2 {
		t.Errorf("partition failed %d of %d calls; retransmissions did not heal",
			res.Load.Failed, res.Load.Attempts)
	}
}

// TestDegradationSurge is the ladder's smoke gate: the surge must walk
// the controller up to the upstream-throttle rung, shed at least some
// load client-side as Throttled, and never renegotiate an established
// call — all with the books balanced (mustRun checks the invariants,
// which include the Renegotiations sentinel and Throttled in the
// conservation sum).
func TestDegradationSurge(t *testing.T) {
	res := mustRun(t, DegradationSurge(1))

	peak := pbx.StageNormal
	for _, tr := range res.Backends[0].Degradation {
		if tr.To > peak {
			peak = tr.To
		}
	}
	t.Logf("surge: transitions=%d peak=%v throttled=%d refused=%d cpu=[%.0f %.0f %.0f]",
		len(res.Backends[0].Degradation), peak, res.Load.Throttled,
		res.Backends[0].Counters.TranscodeRefused, res.Backends[0].CPULo, res.Backends[0].CPUMean, res.Backends[0].CPUHi)

	if peak < pbx.StageUpstreamThrottle {
		t.Errorf("ladder peaked at %v; surge should reach at least %v",
			peak, pbx.StageUpstreamThrottle)
	}
	if peak >= pbx.StageBlock {
		t.Errorf("ladder hit the block rung; surge tuning reserves it for pathology")
	}
	if res.Load.Throttled == 0 {
		t.Error("no calls shed client-side; overload window never reached the generator")
	}
	if res.Backends[0].Counters.Renegotiations != 0 {
		t.Errorf("established calls renegotiated mid-stream: sentinel=%d",
			res.Backends[0].Counters.Renegotiations)
	}
	// Relaxation: at least one downward transition once the window drains.
	var relaxed bool
	for _, tr := range res.Backends[0].Degradation {
		if tr.To < tr.From {
			relaxed = true
			break
		}
	}
	if !relaxed {
		t.Error("ladder never relaxed; hysteresis descent untested by surge")
	}
}

func TestDirtyLinkKeepsBooksBalanced(t *testing.T) {
	res := mustRun(t, DirtyLink(11))
	if res.Load.Established == 0 {
		t.Fatal("no calls survived the dirty link")
	}
	up := res.Links[ClientHost+"->"+PBXHost]
	if up.Duplicated == 0 || up.Reordered == 0 {
		t.Errorf("dup/reorder injection inactive: %+v", up)
	}
	// Wire duplicates must reach the PBX and be absorbed by the
	// transaction layer rather than counted as new attempts.
	if got, attempts := res.Backends[0].Signaling.Received["INVITE"], res.Backends[0].Counters.Attempts; got <= attempts {
		t.Errorf("PBX received %d INVITEs for %d attempts: no wire duplicate on a 5%% duplicating link",
			got, attempts)
	}
}

// TestRunSurfacesProvisioningErrors: a scenario whose target is the
// caller's own account cannot be provisioned, and Run says so.
func TestRunSurfacesProvisioningErrors(t *testing.T) {
	sc := Smoke(1)
	sc.Load.Target = "uac"
	if _, err := Run(sc); !errors.Is(err, directory.ErrDuplicateUser) {
		t.Errorf("target uac: err = %v, want %v", err, directory.ErrDuplicateUser)
	}
}

// TestPBXCrashScenario kills the lone PBX under calls, once with its
// restart and once left dead to the end: either way every call in
// flight at the crash comes back as exactly one LOST record —
// recovered by the restart, or by the post-mortem pass — and the books
// balance.
func TestPBXCrashScenario(t *testing.T) {
	var established [2]int
	for i, restart := range []bool{false, true} {
		sc := PBXCrash(1)
		if !restart {
			sc.Fault.Ops = sc.Fault.Ops[:1]
		}
		res := mustRun(t, sc)
		b := res.Backends[0]
		t.Logf("restart=%v: %s", restart, res.TimelineSummary())
		if b.Crashes != 1 || b.OpenAtCrash == 0 {
			t.Fatalf("restart=%v: crashes=%d open at crash=%d, want 1 crash with calls in flight",
				restart, b.Crashes, b.OpenAtCrash)
		}
		if n := lostRecords(b); n != b.OpenAtCrash {
			t.Errorf("restart=%v: %d LOST CDRs, want %d (open at crash)", restart, n, b.OpenAtCrash)
		}
		if want := 1 + i; len(b.Incarnations) != want {
			t.Errorf("restart=%v: %d incarnations, want %d", restart, len(b.Incarnations), want)
		}
		if res.NoRoute == 0 {
			t.Errorf("restart=%v: the dead PBX blackholed nothing", restart)
		}
		established[i] = res.Load.Established
	}
	if established[1] <= established[0] {
		t.Errorf("the restarted PBX carried no more calls (%d) than the dead one (%d)", established[1], established[0])
	}
}

// TestPartitionKeepsTheDeadDead: a PBX that crashes inside a partition
// of its signalling port stays dead when the window ends — the
// partition must not re-bind the dead process's handler.
func TestPartitionKeepsTheDeadDead(t *testing.T) {
	crash := Op{At: 10 * time.Second, Kind: Crash}
	sc := PBXCrash(1)
	sc.Fault.Ops = []Op{crash}
	alone := mustRun(t, sc).Backends[0].Counters.Attempts
	sc.Fault.Ops = []Op{{At: 8 * time.Second, Kind: Partition, For: 6 * time.Second}, crash}
	if got := mustRun(t, sc).Backends[0].Counters.Attempts; got > alone {
		t.Errorf("the crashed PBX counted %d attempts behind a partition, %d without: it came back when the window closed",
			got, alone)
	}
}

// TestRunRejectsMalformedScripts: a fault script Run cannot carry out
// is an error naming the op, before any event runs; a Restart of a
// live PBX is no such script, only a no-op.
func TestRunRejectsMalformedScripts(t *testing.T) {
	farm := CrashFailover(1)
	for _, c := range []struct {
		name string
		sc   Scenario
		op   Op
		want string
	}{
		{"lone backend", Smoke(1), Op{Kind: Crash, Backend: 1}, "op 0 (crash at 0s): backend 1 of 1"},
		{"negative backend", Smoke(1), Op{Kind: Drain, Backend: -1}, "op 0 (drain at 0s): backend -1 of 1"},
		{"farm backend", farm, Op{At: time.Second, Kind: Restart, Backend: 3}, "op 2 (restart at 1s): backend 3 of 3"},
		{"avalanche without registrations", Smoke(1), Op{Kind: Avalanche, For: time.Second}, "no registration load"},
		{"partition without length", Smoke(1), Op{Kind: Partition}, "partition length 0s"},
		{"unknown kind", Smoke(1), Op{Kind: Avalanche + 1}, "op 0 (unknown at 0s): unknown kind 5"},
	} {
		c.sc.Fault.Ops = append(c.sc.Fault.Ops[:len(c.sc.Fault.Ops):len(c.sc.Fault.Ops)], c.op)
		if _, err := Run(c.sc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}

	sc := Smoke(1)
	sc.Fault.Ops = []Op{{At: 5 * time.Second, Kind: Restart}}
	res := mustRun(t, sc)
	if b := res.Backends[0]; b.Crashes != 0 || len(b.Incarnations) != 1 {
		t.Errorf("restart of a live PBX: crashes=%d incarnations=%d, want a no-op", b.Crashes, len(b.Incarnations))
	}
}

// TestCheckInvariantsTripsEach hand-builds a healthy avalanche result
// and breaks one thing at a time: each break must read as exactly the
// one violation it is.
func TestCheckInvariantsTripsEach(t *testing.T) {
	healthy := func() *Result {
		return &Result{
			Scenario: Scenario{
				Register:   sipp.RegisterConfig{Endpoints: 10},
				MaxDrain:   30 * time.Second,
				MaxPeak503: 100,
				Fault:      Fault{Ops: []Op{{Kind: Avalanche}}},
			},
			Register: sipp.RegisterResults{Endpoints: 10, Registers: 20, Initial: 10, Reregisters: 10,
				DrainTime: 5 * time.Second, PeakShedPerSec: 50},
			Registered:   10,
			LiveBindings: 10,
			Backends:     []Backend{{Books: rig.Books{Host: "pbx2"}}},
		}
	}
	if bad := healthy().CheckInvariants(); len(bad) != 0 {
		t.Fatalf("healthy result: %v", bad)
	}
	for _, c := range []struct {
		want    string
		breakIt func(r *Result)
	}{
		{"initial registrations: 9 of 10", func(r *Result) {
			r.Scenario.Fault.Ops = nil
			r.Register.Initial, r.Register.Registers = 9, 19
		}},
		{"1 endpoints exhausted their retries", func(r *Result) { r.Register.Failed = 1 }},
		{"REGISTER accounting: 21 != 10+0+10", func(r *Result) { r.Register.Registers = 21 }},
		{"store: 9 registered users", func(r *Result) { r.Registered = 9 }},
		{"store: 9 live bindings", func(r *Result) { r.LiveBindings = 9 }},
		{"avalanche: 9 of 10 endpoints re-registered", func(r *Result) {
			r.Register.Reregisters, r.Register.Registers = 9, 19
		}},
		{"avalanche: drain time not recorded", func(r *Result) { r.Register.DrainTime = 0 }},
		{"avalanche: drain took 31s, ceiling 30s", func(r *Result) { r.Register.DrainTime = 31 * time.Second }},
		{"avalanche: 503 peak 101/s, ceiling 100/s", func(r *Result) { r.Register.PeakShedPerSec = 101 }},
		{"packet pool leak: 1 gets vs 0 puts", func(r *Result) { r.PoolGets = 1 }},
		{"pbx2: channel leak: 1 channels still held", func(r *Result) { r.Backends[0].ActiveChannels = 1 }},
	} {
		r := healthy()
		c.breakIt(r)
		if bad := r.CheckInvariants(); len(bad) != 1 || !strings.HasPrefix(bad[0], c.want) {
			t.Errorf("want exactly %q, got %q", c.want, bad)
		}
	}
	for k, want := range map[OpKind]string{
		Partition: "partition", Crash: "crash", Restart: "restart", Drain: "drain",
		Avalanche: "avalanche", Avalanche + 1: "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
