package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/sipp"
)

// TableIWorkloads are the six offered loads of Table I.
var TableIWorkloads = []float64{40, 80, 120, 160, 200, 240}

// TableIOptions tunes the Table I reproduction.
type TableIOptions struct {
	// Workloads defaults to the paper's six columns.
	Workloads []float64
	// Capacity is the PBX channel cap (default 165).
	Capacity int
	// FlowMedia switches to the flow-level media model; the default
	// (false) is packetized RTP, the paper-faithful mode.
	FlowMedia bool
	// Workers bounds experiment parallelism (default GOMAXPROCS).
	Workers int
	// Seed is the base seed.
	Seed uint64
	// Shards > 1 partitions each experiment across that many
	// schedulers; the results are bit-identical at any count.
	Shards int
}

// TableIColumn is one workload column of Table I.
type TableIColumn struct {
	Workload float64
	Result   core.ExperimentResult
}

// TableI runs the empirical method at each workload.
func TableI(opts TableIOptions) []TableIColumn {
	if len(opts.Workloads) == 0 {
		opts.Workloads = TableIWorkloads
	}
	if opts.Capacity == 0 {
		opts.Capacity = 165
	}
	if opts.Seed == 0 {
		opts.Seed = 20150525 // IPDPSW'15 week
	}
	base := core.ExperimentConfig{
		Capacity: opts.Capacity,
		Media:    sipp.MediaPacketized,
		Seed:     opts.Seed,
		Shards:   opts.Shards,
	}
	if opts.FlowMedia {
		base.Media = sipp.MediaNone
	}
	reps := core.Sweep(base, opts.Workloads, 1, opts.Workers)
	cols := make([]TableIColumn, len(reps))
	for i, r := range reps {
		cols[i] = TableIColumn{Workload: opts.Workloads[i], Result: r.Runs[0]}
	}
	return cols
}

// WriteTableI renders the columns in the layout of Table I.
func WriteTableI(w io.Writer, cols []TableIColumn) {
	fmt.Fprintln(w, "Table I: simulation results (empirical method)")
	row := func(label string, f func(c TableIColumn) string) {
		fmt.Fprintf(w, "%-24s", label)
		for _, c := range cols {
			fmt.Fprintf(w, "%14s", f(c))
		}
		fmt.Fprintln(w)
	}
	row("Workload in Erlangs (A)", func(c TableIColumn) string {
		return fmt.Sprintf("%.0f", c.Workload)
	})
	row("Number of Channels (N)", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.ChannelsUsed)
	})
	row("CPU Usage", func(c TableIColumn) string {
		return fmt.Sprintf("%.0f%% to %.0f%%", c.Result.CPULo, c.Result.CPUHi)
	})
	row("MOS", func(c TableIColumn) string {
		if c.Result.MOS.N() == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", c.Result.MOS.Mean())
	})
	row("RTP Msg", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.RTP)
	})
	row("Blocked Calls (%)", func(c TableIColumn) string {
		return fmt.Sprintf("%.0f%%", c.Result.BlockingProbability()*100)
	})
	row("SIP Messages (Total)", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Total)
	})
	row("  INVITE", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Invite)
	})
	row("  100 TRY", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Trying)
	})
	row("  RING", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Ring)
	})
	row("  OK", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.OK)
	})
	row("  ACK", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Ack)
	})
	row("  BYE", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Bye)
	})
	row("  Error Msgs", func(c TableIColumn) string {
		return fmt.Sprintf("%d", c.Result.Capture.Errors)
	})
}

// Fig6Options tunes the empirical-vs-analytical comparison.
type Fig6Options struct {
	// Workloads defaults to 120…260 in steps of 20.
	Workloads []float64
	// Capacity is the PBX cap the empirical curve measures (165).
	Capacity int
	// AnalyticalN are the Erlang-B overlays (paper: 160, 165, 170).
	AnalyticalN []int
	// Reps per point (default 3).
	Reps int
	// Workers bounds parallelism.
	Workers int
	// SteadyState, when true, uses a longer window with warmup so the
	// empirical points estimate the stationary blocking Erlang-B
	// predicts; false reproduces the paper's 180 s transient windows.
	SteadyState bool
	Seed        uint64
}

// Fig6Point is one x-position of Figure 6.
type Fig6Point struct {
	Workload   float64
	Empirical  float64 // measured Pb (mean over reps)
	EmpiricalC float64 // ± half-width (95%)
	Analytical map[int]float64
}

// Fig6 measures blocking across workloads and overlays Erlang-B.
func Fig6(opts Fig6Options) []Fig6Point {
	if len(opts.Workloads) == 0 {
		for a := 120.0; a <= 260; a += 20 {
			opts.Workloads = append(opts.Workloads, a)
		}
	}
	if opts.Capacity == 0 {
		opts.Capacity = 165
	}
	if len(opts.AnalyticalN) == 0 {
		opts.AnalyticalN = []int{160, 165, 170}
	}
	if opts.Reps == 0 {
		opts.Reps = 3
	}
	if opts.Seed == 0 {
		opts.Seed = 60615
	}
	base := core.ExperimentConfig{
		Capacity: opts.Capacity,
		Media:    sipp.MediaNone, // blocking needs no per-packet media
		Seed:     opts.Seed,
	}
	if opts.SteadyState {
		base.Window = 600e9 // 600 s
		base.Warmup = 240e9 // exclude the fill transient
	}
	sweep := core.Sweep(base, opts.Workloads, opts.Reps, opts.Workers)
	points := make([]Fig6Point, len(sweep))
	for i, rep := range sweep {
		p := Fig6Point{
			Workload:   opts.Workloads[i],
			Empirical:  rep.Blocking.Mean(),
			EmpiricalC: rep.Blocking.CI95(),
			Analytical: make(map[int]float64, len(opts.AnalyticalN)),
		}
		for _, n := range opts.AnalyticalN {
			p.Analytical[n] = erlang.B(erlang.Erlangs(opts.Workloads[i]), n)
		}
		points[i] = p
	}
	return points
}

// WriteFig6 renders the comparison series.
func WriteFig6(w io.Writer, points []Fig6Point, analyticalN []int) {
	fmt.Fprintln(w, "Figure 6: empirical vs Erlang-B blocking (%) with increasing workload")
	fmt.Fprintf(w, "%10s%14s", "Erlangs", "Empirical")
	for _, n := range analyticalN {
		fmt.Fprintf(w, "%14s", fmt.Sprintf("ErlangB N=%d", n))
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "%10.0f%9.2f±%-4.2f", p.Workload, p.Empirical*100, p.EmpiricalC*100)
		for _, n := range analyticalN {
			fmt.Fprintf(w, "%14.2f", p.Analytical[n]*100)
		}
		fmt.Fprintln(w)
	}
}
