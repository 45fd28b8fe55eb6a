package chaos

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/directory"
	"repro/internal/erlang"
	"repro/internal/pbx"
)

func mustRun(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name, err)
	}
	if bad := res.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("scenario %s violated invariants: %v", sc.Name, bad)
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
	if res.Capture.SIPTotal() == 0 || res.Capture.RTPPackets() == 0 {
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
		baseline.Load.Established, bGood, baseline.CPULo, baseline.CPUMean, baseline.CPUHi,
		baseline.Counters.DroppedPackets)
	t.Logf("controlled: established=%d goodput=%d retries=%d cpu=[%.0f %.0f %.0f] dropped=%d",
		controlled.Load.Established, cGood, controlled.Load.Retries,
		controlled.CPULo, controlled.CPUMean, controlled.CPUHi, controlled.Counters.DroppedPackets)

	if cGood <= bGood {
		t.Errorf("controller goodput %d does not strictly exceed baseline %d", cGood, bGood)
	}
	// The mechanism, not just the outcome: the baseline must actually
	// have saturated (post-knee RTP drops), and the controller must
	// have shed load early (blocking + Retry-After driven retries).
	if baseline.Counters.DroppedPackets == 0 {
		t.Error("baseline never crossed the CPU knee; scenario is miscalibrated")
	}
	if controlled.Load.Retries == 0 {
		t.Error("controller produced no client retries; Retry-After loop is dead")
	}
	if controlled.Counters.Blocked == 0 {
		t.Error("controller never shed load")
	}

	// Bit-reproducibility: identical seeds give identical runs.
	again := mustRun(t, OverloadControlled(seed))
	if !reflect.DeepEqual(controlled.Load, again.Load) {
		t.Error("controlled run not reproducible: generator results differ across same-seed runs")
	}
	if controlled.Counters != again.Counters {
		t.Errorf("controlled run not reproducible: counters %+v vs %+v",
			controlled.Counters, again.Counters)
	}
	if controlled.Capture.Row() != again.Capture.Row() {
		t.Error("controlled run not reproducible: wire captures differ")
	}
	if !reflect.DeepEqual(controlled.Series, again.Series) {
		t.Error("controlled run not reproducible: per-second series differ")
	}
	b2 := mustRun(t, OverloadBaseline(seed))
	if !reflect.DeepEqual(baseline.Load, b2.Load) || baseline.Counters != b2.Counters {
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
	if res.Counters.PeakChannels > 165 {
		t.Errorf("peak channels %d exceeded the configured capacity", res.Counters.PeakChannels)
	}
}

func TestSignalingPartitionHeals(t *testing.T) {
	res := mustRun(t, SignalingPartition(3))
	if res.NoRoute == 0 {
		t.Error("partition dropped nothing; injection did not happen")
	}
	// The blackout swallows INVITEs the client keeps resending: the
	// wire carries more of them than the PBX ever received or sent on.
	wire := res.Capture.Row().Invite
	handled := res.Signaling.Received["INVITE"] + res.Signaling.Sent["INVITE"]
	if wire <= handled {
		t.Errorf("wire INVITEs %d <= PBX-handled %d: no retransmissions across a 5s blackout",
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
	for _, tr := range res.Degradation {
		if tr.To > peak {
			peak = tr.To
		}
	}
	t.Logf("surge: transitions=%d peak=%v throttled=%d refused=%d cpu=[%.0f %.0f %.0f]",
		len(res.Degradation), peak, res.Load.Throttled,
		res.Counters.TranscodeRefused, res.CPULo, res.CPUMean, res.CPUHi)

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
	if res.Counters.Renegotiations != 0 {
		t.Errorf("established calls renegotiated mid-stream: sentinel=%d",
			res.Counters.Renegotiations)
	}
	// Relaxation: at least one downward transition once the window drains.
	var relaxed bool
	for _, tr := range res.Degradation {
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
	if got, attempts := res.Signaling.Received["INVITE"], res.Counters.Attempts; got <= attempts {
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
