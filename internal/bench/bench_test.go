package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/erlang"
)

func TestFig3Shapes(t *testing.T) {
	curves := Fig3(260)
	if len(curves) != 12 {
		t.Fatalf("curves = %d, want 12 (20..240 step 20)", len(curves))
	}
	for _, c := range curves {
		// Each curve is strictly decreasing in N.
		for i := 1; i < len(c.Pb); i++ {
			if c.Pb[i] >= c.Pb[i-1] {
				t.Fatalf("A=%v: Pb not decreasing at N=%d", c.Workload, i+1)
			}
		}
	}
	// Curves order by workload at fixed N: more load, more blocking.
	for i := 1; i < len(curves); i++ {
		if curves[i].Pb[150] <= curves[i-1].Pb[150] {
			t.Errorf("curves out of order at N=151: A=%v vs A=%v",
				curves[i].Workload, curves[i-1].Workload)
		}
	}
	// Spot value: the 160-Erlang curve at N=165 is ~4.3% — the
	// abstract's ">160 concurrent calls below 5% blocking".
	c160 := curves[7]
	if c160.Workload != 160 {
		t.Fatalf("curve 7 is A=%v", c160.Workload)
	}
	if got := c160.Pb[164]; math.Abs(got-0.0428) > 0.005 {
		t.Errorf("B(160,165) = %v, want ~0.043", got)
	}
}

func TestWriteFig3(t *testing.T) {
	var sb strings.Builder
	WriteFig3(&sb, Fig3(260))
	out := sb.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "240E") {
		t.Errorf("output:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 13 {
		t.Error("too few rows")
	}
}

func TestFig7Anchors(t *testing.T) {
	curves := Fig7(8000, 165)
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	at := func(durIdx int, pct int) float64 { return curves[durIdx].Points[pct-1].Pb }
	// Paper anchors at 60% of the population: <5% (2 min), ~21%
	// (2.5 min), and >34% shortly past 60% (3 min).
	if got := at(0, 60); got >= 0.05 {
		t.Errorf("2 min @60%%: %v", got)
	}
	if got := at(1, 60); math.Abs(got-0.21) > 0.03 {
		t.Errorf("2.5 min @60%%: %v, want ~0.21", got)
	}
	if got := at(2, 65); got <= 0.34 {
		t.Errorf("3 min @65%%: %v, want > 0.34", got)
	}
	// Longer calls block more at every point.
	for pct := 30; pct <= 100; pct += 10 {
		if !(at(0, pct) <= at(1, pct) && at(1, pct) <= at(2, pct)) {
			t.Errorf("duration ordering broken at %d%%", pct)
		}
	}
}

func TestWriteFig7(t *testing.T) {
	var sb strings.Builder
	WriteFig7(&sb, Fig7(8000, 165), 8000, 165)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("missing title")
	}
}

func TestSizing(t *testing.T) {
	s := Sizing()
	if s.Erlangs != 150 {
		t.Errorf("erlangs = %v", s.Erlangs)
	}
	if math.Abs(s.Pb-0.018) > 0.004 {
		t.Errorf("Pb = %v, paper says ~1.8%%", s.Pb)
	}
	var sb strings.Builder
	WriteSizing(&sb, s)
	if !strings.Contains(sb.String(), "150 Erlangs") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestTableIQuick(t *testing.T) {
	// A reduced Table I (two columns, flow media) verifies the
	// harness end to end without the full packetized cost.
	cols := TableI(TableIOptions{
		Workloads: []float64{40, 240},
		FlowMedia: true,
		Seed:      7,
	})
	if len(cols) != 2 {
		t.Fatalf("columns = %d", len(cols))
	}
	light, heavy := cols[0].Result, cols[1].Result
	if light.Load.Blocked != 0 {
		t.Errorf("A=40 blocked %d calls", light.Load.Blocked)
	}
	if heavy.BlockingProbability() < 0.15 {
		t.Errorf("A=240 Pb = %v", heavy.BlockingProbability())
	}
	if heavy.ChannelsUsed != 165 {
		t.Errorf("A=240 channels = %d", heavy.ChannelsUsed)
	}
	if !(light.CPUMean < heavy.CPUMean && heavy.CPUMean < 60) {
		t.Errorf("CPU ordering: %v vs %v", light.CPUMean, heavy.CPUMean)
	}
	if light.MOS.Mean() < 4 || heavy.MOS.Mean() < 4 {
		t.Errorf("MOS: %v / %v", light.MOS.Mean(), heavy.MOS.Mean())
	}

	var sb strings.Builder
	WriteTableI(&sb, cols)
	out := sb.String()
	for _, want := range []string{"Workload in Erlangs", "Blocked Calls", "100 TRY", "Error Msgs"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	points := Fig6(Fig6Options{
		Workloads: []float64{140, 200, 260},
		Reps:      2,
		Seed:      9,
	})
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Empirical blocking rises with load.
	if !(points[0].Empirical <= points[1].Empirical && points[1].Empirical < points[2].Empirical) {
		t.Errorf("empirical not monotone: %v %v %v",
			points[0].Empirical, points[1].Empirical, points[2].Empirical)
	}
	// Analytical overlays order by N at high load: fewer channels
	// block more.
	p := points[2]
	if !(p.Analytical[160] > p.Analytical[165] && p.Analytical[165] > p.Analytical[170]) {
		t.Errorf("analytical overlays out of order: %v", p.Analytical)
	}
	var sb strings.Builder
	WriteFig6(&sb, points, []int{160, 165, 170})
	if !strings.Contains(sb.String(), "ErlangB N=165") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig6SteadyStateTracksErlangB(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state sweep is slow")
	}
	points := Fig6(Fig6Options{
		Workloads:   []float64{200},
		Reps:        4,
		SteadyState: true,
		Seed:        11,
	})
	p := points[0]
	want := erlang.B(200, 165)
	if math.Abs(p.Empirical-want) > 0.05 {
		t.Errorf("steady-state empirical %v vs Erlang-B(200,165)=%v", p.Empirical, want)
	}
	// Bracketed by the N=160 and N=170 overlays.
	if !(p.Empirical < p.Analytical[160]+0.05 && p.Empirical > p.Analytical[170]-0.05) {
		t.Errorf("empirical %v outside bracket [%v, %v]",
			p.Empirical, p.Analytical[170], p.Analytical[160])
	}
}

func TestAdmissionAblation(t *testing.T) {
	ab := RunAdmissionAblation(240, 13)
	if ab.ChannelCap.Load.Blocked == 0 || ab.CPUAdmitted.Load.Blocked == 0 {
		t.Errorf("both modes must block at A=240: %d / %d",
			ab.ChannelCap.Load.Blocked, ab.CPUAdmitted.Load.Blocked)
	}
	if ab.ChannelCap.ChannelsUsed != 165 {
		t.Errorf("cap mode peak = %d", ab.ChannelCap.ChannelsUsed)
	}
	var sb strings.Builder
	WriteAdmissionAblation(&sb, ab)
	if !strings.Contains(sb.String(), "channel cap 165") {
		t.Error("missing row")
	}
}

func TestMediaAblationAgreement(t *testing.T) {
	ab := RunMediaAblation(17)
	if math.Abs(ab.PacketizedMOS-ab.FlowMOS) > 0.15 {
		t.Errorf("media models disagree: packetized %v vs flow %v", ab.PacketizedMOS, ab.FlowMOS)
	}
	if ab.FlowEvents*10 > ab.PacketizedEvents {
		t.Errorf("flow mode not meaningfully cheaper: %d vs %d", ab.FlowEvents, ab.PacketizedEvents)
	}
	var sb strings.Builder
	WriteMediaAblation(&sb, ab)
	if !strings.Contains(sb.String(), "cheaper") {
		t.Error("missing cost line")
	}
}

func TestHoldAblationInsensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state replications are slow")
	}
	ab := RunHoldAblation(200, 3, 19)
	// Insensitivity: both distributions land near Erlang-B.
	if math.Abs(ab.FixedBlocking-ab.ExponentialBlocking) > 0.07 {
		t.Errorf("hold distributions diverge: fixed %v vs exp %v",
			ab.FixedBlocking, ab.ExponentialBlocking)
	}
	var sb strings.Builder
	WriteHoldAblation(&sb, ab)
	if !strings.Contains(sb.String(), "insensitiv") {
		t.Error("missing label")
	}
}

func TestArrivalAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state replications are slow")
	}
	ab := RunArrivalAblation(200, 3, 23)
	// Deterministic arrivals smooth the input and block less than
	// Poisson at the same load.
	if ab.UniformBlocking >= ab.PoissonBlocking {
		t.Errorf("uniform %v >= poisson %v", ab.UniformBlocking, ab.PoissonBlocking)
	}
	var sb strings.Builder
	WriteArrivalAblation(&sb, ab)
	if !strings.Contains(sb.String(), "Poisson") {
		t.Error("missing row")
	}
}

func TestMediaFlowSanity(t *testing.T) {
	r := MediaFlowSanity()
	if r.Sent != 6000 || r.MOS < 4.3 {
		t.Errorf("flow sanity: %+v", r)
	}
}

func TestClusterScalingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state cluster sweeps are slow")
	}
	cs, err := RunClusterScaling(50, 30, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Points) != 3 {
		t.Fatalf("points = %d", len(cs.Points))
	}
	one := cs.Points[0]
	if one.Servers != 1 || one.Measured < 0.2 {
		t.Errorf("single 30-channel server at A=50 should block heavily: %+v", one)
	}
	// Two servers cut blocking dramatically, and the measured values
	// sit between the split and pooled Erlang-B bounds (within noise).
	for _, p := range cs.Points[1:] {
		if p.Measured >= one.Measured {
			t.Errorf("k=2 %s did not improve on k=1: %+v", p.Policy, p)
		}
		if p.Measured > p.SplitErlangB+0.08 {
			t.Errorf("k=2 %s blocking %.3f far above split bound %.3f",
				p.Policy, p.Measured, p.SplitErlangB)
		}
	}
	var sb strings.Builder
	WriteClusterScaling(&sb, cs)
	if !strings.Contains(sb.String(), "least-busy") {
		t.Error("missing policy row")
	}
}
