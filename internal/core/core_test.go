package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/erlang"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

func TestRunLightLoadNoBlocking(t *testing.T) {
	// A = 40 on a 165-channel server: Table I reports zero blocking.
	r := Run(ExperimentConfig{Workload: 40, Capacity: 165, Seed: 1})
	if r.Load.Blocked != 0 {
		t.Errorf("blocked = %d at A=40", r.Load.Blocked)
	}
	// ~60 calls in the 180 s window at λ = 1/3.
	if r.Load.Attempts < 40 || r.Load.Attempts > 85 {
		t.Errorf("attempts = %d, want ~60", r.Load.Attempts)
	}
	// CPU inside the paper band 15-20% (±5 tolerance for sampling).
	if r.CPUMean < 10 || r.CPUMean > 25 {
		t.Errorf("CPU mean = %.1f, paper band 15-20%%", r.CPUMean)
	}
	// Channel usage ≈ A (paper used 42 channels at A=40).
	if r.ChannelsUsed < 30 || r.ChannelsUsed > 60 {
		t.Errorf("channels used = %d, want ~40-50", r.ChannelsUsed)
	}
	if r.MOS.N() != r.Load.Established {
		t.Errorf("MOS scored for %d of %d calls", r.MOS.N(), r.Load.Established)
	}
	if r.MOS.Mean() < 4.0 {
		t.Errorf("MOS = %v, paper keeps it above 4", r.MOS.Mean())
	}
}

func TestRunOverloadBlocks(t *testing.T) {
	// A = 240 on 165 channels blocks 20-35% of calls (paper: 29%).
	r := Run(ExperimentConfig{Workload: 240, Capacity: 165, Seed: 2})
	pb := r.BlockingProbability()
	if pb < 0.15 || pb > 0.40 {
		t.Errorf("Pb = %.3f at A=240, paper reports 0.29", pb)
	}
	if r.ChannelsUsed != 165 {
		t.Errorf("channels used = %d, want the full 165", r.ChannelsUsed)
	}
	// MOS of completed calls still above 4 — the paper's "highly
	// desirable feature".
	if r.MOS.Mean() < 4.0 {
		t.Errorf("MOS = %v", r.MOS.Mean())
	}
	if r.CPUMean >= 60 {
		t.Errorf("CPU mean %.1f breaches the paper's 60%% ceiling", r.CPUMean)
	}
}

func TestWarmupApproachesErlangB(t *testing.T) {
	// With warmup excluding the empty-system transient and a longer
	// window, measured blocking approaches B(A, N).
	cfg := ExperimentConfig{
		Workload: 200,
		Capacity: 165,
		Window:   600 * time.Second,
		Warmup:   240 * time.Second,
		Seed:     3,
	}
	rep := RunReplications(cfg, 4, 1)
	want := erlang.B(200, 165)
	got := rep.Blocking.Mean()
	if math.Abs(got-want) > 0.05 {
		t.Errorf("steady-state Pb = %.3f, Erlang-B = %.3f", got, want)
	}
}

func TestSIPMessageAccounting(t *testing.T) {
	r := Run(ExperimentConfig{Workload: 20, Capacity: 165, Seed: 4})
	row := r.Capture
	est := uint64(r.Load.Established)
	// Fig. 2: per completed call, 2 INVITE, 1×100, 2×180, 4×200 (2 for
	// INVITE + 2 for BYE), 2 ACK, 2 BYE on the wire. Registration adds
	// 4 REGISTER-related messages total (2 users × 401+200... counted
	// separately). INVITE row counts calls exactly.
	if row.Invite != 2*est {
		t.Errorf("INVITE = %d, want %d", row.Invite, 2*est)
	}
	if row.Trying != est {
		t.Errorf("100 TRY = %d, want %d", row.Trying, est)
	}
	if row.Ring != 2*est {
		t.Errorf("RING = %d, want %d", row.Ring, 2*est)
	}
	if row.Ack != 2*est {
		t.Errorf("ACK = %d, want %d", row.Ack, 2*est)
	}
	if row.Bye != 2*est {
		t.Errorf("BYE = %d, want %d", row.Bye, 2*est)
	}
	// The only 4xx on the wire are the two REGISTER digest challenges
	// (one per phone); no call-path errors at this load.
	if row.Errors != 2 {
		t.Errorf("errors = %d, want 2 (registration 401s only)", row.Errors)
	}
	// 13 messages per call + registration traffic.
	if row.Total < 13*est || row.Total > 13*est+12 {
		t.Errorf("total = %d, want ~%d", row.Total, 13*est)
	}
}

func TestBlockedCallsProduceErrorMessages(t *testing.T) {
	r := Run(ExperimentConfig{Workload: 60, Capacity: 20, Seed: 5})
	if r.Load.Blocked == 0 {
		t.Fatal("expected blocking with a 20-channel cap at A=60")
	}
	if r.Capture.Errors < uint64(r.Load.Blocked) {
		t.Errorf("error msgs = %d, want >= blocked = %d", r.Capture.Errors, r.Load.Blocked)
	}
}

func TestPacketizedRunProducesRTPCounts(t *testing.T) {
	r := Run(ExperimentConfig{
		Workload: 10, // light: ~15 calls, keeps the test fast
		Capacity: 165,
		Media:    sipp.MediaPacketized,
		Seed:     6,
	})
	if r.Load.Established == 0 {
		t.Fatal("no calls")
	}
	// Each established 120 s call sends ~6000 packets per direction;
	// the wire tap sees each relayed packet twice (two hops).
	perCall := float64(r.Capture.RTP) / float64(r.Load.Established)
	if perCall < 20000 || perCall > 26000 {
		t.Errorf("RTP per call on the wire = %.0f, want ~24000", perCall)
	}
	if r.Server.RelayedPackets == 0 {
		t.Error("no packets relayed")
	}
	if r.MOS.Mean() < 4.2 {
		t.Errorf("MOS = %v", r.MOS.Mean())
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	cfg := ExperimentConfig{Workload: 80, Capacity: 60, Seed: 7}
	a, b := Run(cfg), Run(cfg)
	if a.Load.Attempts != b.Load.Attempts || a.Load.Blocked != b.Load.Blocked {
		t.Errorf("same seed diverged: %d/%d vs %d/%d",
			a.Load.Attempts, a.Load.Blocked, b.Load.Attempts, b.Load.Blocked)
	}
	cfg.Seed = 8
	c := Run(cfg)
	if c.Load.Attempts == a.Load.Attempts && c.Load.Blocked == a.Load.Blocked &&
		c.Load.Established == a.Load.Established {
		t.Log("different seed produced identical aggregate; suspicious but possible")
	}
}

// TestIslandsOnOneShard: replicas are honoured at any shard count. On a
// single shard island 0 reports exactly what it reports alone, and the
// replica's events are fired beside it.
func TestIslandsOnOneShard(t *testing.T) {
	cfg := ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaPacketized, Seed: 42}
	alone := Run(cfg)
	cfg.Islands, cfg.Shards = 2, 1
	both := Run(cfg)
	if !reflect.DeepEqual(both.Load, alone.Load) {
		t.Error("island 0's generator results differ from the lone run's")
	}
	if both.Capture != alone.Capture {
		t.Errorf("island 0's capture: %+v, alone %+v", both.Capture, alone.Capture)
	}
	if len(alone.CDRs) == 0 || !reflect.DeepEqual(both.CDRs, alone.CDRs) {
		t.Errorf("island 0's CDRs: %d records, alone %d", len(both.CDRs), len(alone.CDRs))
	}
	if !reflect.DeepEqual(both.Series, alone.Series) {
		t.Error("island 0's per-second series differs from the lone run's")
	}
	if both.Events <= alone.Events {
		t.Errorf("the replica fired nothing: %d events with it, %d alone", both.Events, alone.Events)
	}
}

func TestRunReplicationsAggregates(t *testing.T) {
	rep := RunReplications(ExperimentConfig{Workload: 60, Capacity: 40, Seed: 9}, 5, 2)
	if len(rep.Runs) != 5 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.Blocking.N() != 5 {
		t.Errorf("blocking summary n = %d", rep.Blocking.N())
	}
	// A=60 on 40 channels: Erlang-B says ~0.35; transient run lands
	// below but must clearly block.
	if rep.Blocking.Mean() < 0.10 {
		t.Errorf("mean blocking = %v", rep.Blocking.Mean())
	}
	// Replications must differ (different seeds).
	allSame := true
	for _, r := range rep.Runs[1:] {
		if r.Load.Blocked != rep.Runs[0].Load.Blocked {
			allSame = false
		}
	}
	if allSame {
		t.Error("all replications produced identical blocking counts")
	}
}

func TestSweepOrdering(t *testing.T) {
	points := []float64{40, 120, 200}
	out := Sweep(ExperimentConfig{Capacity: 100, Seed: 10}, points, 2, 2)
	if len(out) != 3 {
		t.Fatalf("sweep points = %d", len(out))
	}
	for i, p := range points {
		if float64(out[i].Config.Workload) != p {
			t.Errorf("point %d workload = %v, want %v", i, out[i].Config.Workload, p)
		}
	}
	// Blocking must increase along the sweep (A=40 none, A=200 lots).
	if !(out[0].Blocking.Mean() <= out[1].Blocking.Mean() &&
		out[1].Blocking.Mean() < out[2].Blocking.Mean()) {
		t.Errorf("blocking not monotone: %v %v %v",
			out[0].Blocking.Mean(), out[1].Blocking.Mean(), out[2].Blocking.Mean())
	}
}

func TestArrivalRateDerivation(t *testing.T) {
	cfg := ExperimentConfig{Workload: 240}
	if got := cfg.ArrivalRate(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("λ = %v for A=240, h=120s; want 2.0", got)
	}
}

func TestCPUPercentAblation(t *testing.T) {
	// CPU-based admission with a threshold near the calibrated model's
	// ~165-call plateau produces a capacity knee like the channel cap.
	r := Run(ExperimentConfig{
		Workload:  240,
		Admission: pbx.Admission{CPUPercent: 50},
		Seed:      11,
	})
	if r.Load.Blocked == 0 {
		t.Error("CPU admission never blocked at A=240")
	}
	if r.ChannelsUsed < 120 || r.ChannelsUsed > 230 {
		t.Errorf("CPU-admission capacity knee at %d concurrent calls", r.ChannelsUsed)
	}
}
