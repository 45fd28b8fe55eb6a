package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/media"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

// AdmissionAblation compares the two capacity mechanisms at one
// workload: the hard channel cap (what we calibrate to the paper's
// measured 165) and CPU-threshold admission (capacity as an emergent
// property of the load model).
type AdmissionAblation struct {
	Workload    float64
	ChannelCap  core.ExperimentResult
	CPUAdmitted core.ExperimentResult
}

// RunAdmissionAblation executes both modes at workload A.
func RunAdmissionAblation(a float64, seed uint64) AdmissionAblation {
	return AdmissionAblation{
		Workload: a,
		ChannelCap: core.Run(core.ExperimentConfig{
			Workload: erlang.Erlangs(a), Capacity: 165, Seed: seed,
		}),
		CPUAdmitted: core.Run(core.ExperimentConfig{
			Workload: erlang.Erlangs(a), Admission: pbx.Admission{CPUPercent: 50}, Seed: seed,
		}),
	}
}

// WriteAdmissionAblation renders the comparison.
func WriteAdmissionAblation(w io.Writer, ab AdmissionAblation) {
	fmt.Fprintf(w, "Ablation: admission control at A=%.0f Erlangs\n", ab.Workload)
	fmt.Fprintf(w, "%-18s%12s%14s%12s%12s\n", "mode", "blocked %", "peak calls", "CPU mean", "err msgs")
	p := func(name string, r core.ExperimentResult) {
		fmt.Fprintf(w, "%-18s%11.1f%%%14d%11.1f%%%12d\n",
			name, r.BlockingProbability()*100, r.ChannelsUsed, r.CPUMean, r.Capture.Errors)
	}
	p("channel cap 165", ab.ChannelCap)
	p("cpu threshold 50", ab.CPUAdmitted)
}

// MediaAblation compares the packetized and flow media models on the
// same call path, asserting the flow model is a faithful fast path.
type MediaAblation struct {
	PacketizedMOS  float64
	PacketizedLoss float64
	FlowMOS        float64
	FlowLoss       float64
	// PacketizedEvents and FlowEvents show the cost gap.
	PacketizedEvents uint64
	FlowEvents       uint64
}

// RunMediaAblation runs one light workload in both media modes.
func RunMediaAblation(seed uint64) MediaAblation {
	pkt := core.Run(core.ExperimentConfig{
		Workload: 20, Capacity: 165, Media: sipp.MediaPacketized, Seed: seed,
	})
	flow := core.Run(core.ExperimentConfig{
		Workload: 20, Capacity: 165, Media: sipp.MediaNone, Seed: seed,
	})
	ab := MediaAblation{
		PacketizedMOS:    pkt.MOS.Mean(),
		FlowMOS:          flow.MOS.Mean(),
		PacketizedEvents: pkt.Events,
		FlowEvents:       flow.Events,
	}
	var lossSum float64
	var n int
	for _, rec := range pkt.Load.Records {
		if rec.Established {
			lossSum += rec.CallerMedia.EffectiveLoss
			n++
		}
	}
	if n > 0 {
		ab.PacketizedLoss = lossSum / float64(n)
	}
	return ab
}

// WriteMediaAblation renders the comparison.
func WriteMediaAblation(w io.Writer, ab MediaAblation) {
	fmt.Fprintln(w, "Ablation: packetized vs flow-level media model (A=20)")
	fmt.Fprintf(w, "%-14s%10s%12s%16s\n", "model", "MOS", "loss", "sim events")
	fmt.Fprintf(w, "%-14s%10.3f%11.2f%%%16d\n", "packetized", ab.PacketizedMOS, ab.PacketizedLoss*100, ab.PacketizedEvents)
	fmt.Fprintf(w, "%-14s%10.3f%11.2f%%%16d\n", "flow", ab.FlowMOS, ab.FlowLoss*100, ab.FlowEvents)
	if ab.FlowEvents > 0 {
		fmt.Fprintf(w, "flow mode is %.0fx cheaper in events\n", float64(ab.PacketizedEvents)/float64(ab.FlowEvents))
	}
}

// ArrivalAblation compares Poisson and uniform arrivals at the same
// offered load: Erlang-B assumes Poisson; smoother arrivals block less.
type ArrivalAblation struct {
	Workload         float64
	PoissonBlocking  float64
	UniformBlocking  float64
	ErlangBPredicted float64
}

// RunArrivalAblation measures both arrival shapes at steady state.
func RunArrivalAblation(a float64, reps int, seed uint64) ArrivalAblation {
	base := core.ExperimentConfig{
		Workload: erlang.Erlangs(a),
		Capacity: 165,
		Window:   600 * time.Second,
		Warmup:   240 * time.Second,
		Seed:     seed,
	}
	pois := core.RunReplications(base, reps, 0)
	uni := base
	uni.Arrivals = sipp.ArrivalUniform
	unif := core.RunReplications(uni, reps, 0)
	return ArrivalAblation{
		Workload:         a,
		PoissonBlocking:  pois.Blocking.Mean(),
		UniformBlocking:  unif.Blocking.Mean(),
		ErlangBPredicted: erlang.B(erlang.Erlangs(a), 165),
	}
}

// WriteArrivalAblation renders the comparison.
func WriteArrivalAblation(w io.Writer, ab ArrivalAblation) {
	fmt.Fprintf(w, "Ablation: arrival process at A=%.0f Erlangs (steady state, N=165)\n", ab.Workload)
	fmt.Fprintf(w, "  Poisson arrivals: Pb = %.2f%%   (Erlang-B predicts %.2f%%)\n",
		ab.PoissonBlocking*100, ab.ErlangBPredicted*100)
	fmt.Fprintf(w, "  Uniform arrivals: Pb = %.2f%%   (smoother input, below Erlang-B)\n",
		ab.UniformBlocking*100)
}

// HoldAblation demonstrates the Erlang-B insensitivity property: the
// blocking depends on the holding-time distribution only through its
// mean.
type HoldAblation struct {
	Workload            float64
	FixedBlocking       float64
	ExponentialBlocking float64
	ErlangBPredicted    float64
}

// RunHoldAblation measures fixed vs exponential hold at steady state.
func RunHoldAblation(a float64, reps int, seed uint64) HoldAblation {
	base := core.ExperimentConfig{
		Workload: erlang.Erlangs(a),
		Capacity: 165,
		Window:   600 * time.Second,
		Warmup:   240 * time.Second,
		Seed:     seed,
	}
	fixed := core.RunReplications(base, reps, 0)
	exp := base
	exp.HoldDist = sipp.HoldExponential
	expo := core.RunReplications(exp, reps, 0)
	return HoldAblation{
		Workload:            a,
		FixedBlocking:       fixed.Blocking.Mean(),
		ExponentialBlocking: expo.Blocking.Mean(),
		ErlangBPredicted:    erlang.B(erlang.Erlangs(a), 165),
	}
}

// WriteHoldAblation renders the comparison.
func WriteHoldAblation(w io.Writer, ab HoldAblation) {
	fmt.Fprintf(w, "Ablation: holding-time distribution at A=%.0f Erlangs (insensitivity)\n", ab.Workload)
	fmt.Fprintf(w, "  fixed 120 s:      Pb = %.2f%%\n", ab.FixedBlocking*100)
	fmt.Fprintf(w, "  exponential(120): Pb = %.2f%%\n", ab.ExponentialBlocking*100)
	fmt.Fprintf(w, "  Erlang-B:         Pb = %.2f%% (distribution-insensitive)\n", ab.ErlangBPredicted*100)
}

// MediaFlowSanity exposes the flow model for external checks.
func MediaFlowSanity() media.Report {
	return media.Flow(media.FlowParams{Duration: 120 * time.Second}, nil)
}
