package bench

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/pbx"
)

// StrategyFrontierRow is one strategy's showing at the frontier
// operating point.
type StrategyFrontierRow struct {
	Strategy string
	// Established/Blocked/Throttled/Failed are the generator's call
	// dispositions.
	Established, Blocked, Throttled, Failed int
	// CarriedMinutes is the raw carried traffic: Σ established call
	// durations, in minutes.
	CarriedMinutes float64
	// MOSMinutes is the headline figure — MOS-weighted carried
	// minutes, Σ mos_i · minutes_i over established calls, scoring
	// each call by its measured E-model MOS (falling back to the
	// CDR-model score when the meters did not run). A strategy that
	// carries many unlistenable calls scores no better than one that
	// sheds them.
	MOSMinutes float64
	// MeanMOS is MOSMinutes / CarriedMinutes.
	MeanMOS float64
	// Goodput is the count of established calls at or above the
	// chaos-package GoodMOS floor.
	Goodput int
	// CPUMean is the host's mean utilization over the busy plateau.
	CPUMean float64
	// PeakStage is the highest degradation rung the run reached
	// (StageNormal for the ladder-less strategies).
	PeakStage pbx.DegradationStage
}

// StrategyFrontierTable is the head-to-head comparison of the four
// overload-control strategies at one overload operating point.
type StrategyFrontierTable struct {
	Seed uint64
	Rows []StrategyFrontierRow
}

// FrontierStrategies is the comparison order: the classical baseline
// first, then each refinement — the names chaos.FrontierScenario maps:
// the hard cap, the occupancy controller shedding at 70% of the pool,
// the cap plus the E-model quality floor, and the occupancy controller
// under the full degradation ladder.
var FrontierStrategies = []string{"static", "occupancy", "quality", "ladder"}

// RunStrategyFrontier runs all four strategies against the same seed
// and offered load (chaos.FrontierScenario: a sustained 1.5×-capacity
// surge with retry pressure and a transcoding-hungry codec minority)
// and tabulates MOS-weighted carried minutes. The graceful-degradation
// ladder should dominate the static 503 baseline: degrading early
// keeps the host near its knee, so the calls it does carry score
// usable MOS instead of relay-dropped mush.
func RunStrategyFrontier(seed uint64) (StrategyFrontierTable, error) {
	tbl := StrategyFrontierTable{Seed: seed}
	for _, strat := range FrontierStrategies {
		res, err := chaos.Run(chaos.FrontierScenario(strat, seed))
		if err != nil {
			return tbl, fmt.Errorf("frontier %s: %w", strat, err)
		}
		if bad := res.CheckInvariants(); len(bad) > 0 {
			return tbl, fmt.Errorf("frontier %s violated invariants: %v", strat, bad)
		}
		tbl.Rows = append(tbl.Rows, frontierRow(strat, res))
	}
	return tbl, nil
}

func frontierRow(strategy string, res *chaos.Result) StrategyFrontierRow {
	srv := res.Backends[0]
	row := StrategyFrontierRow{
		Strategy:    strategy,
		Established: res.Load.Established,
		Blocked:     res.Load.Blocked,
		Throttled:   res.Load.Throttled,
		Failed:      res.Load.Failed,
		Goodput:     res.Goodput(chaos.GoodMOS),
		CPUMean:     srv.CPUMean,
	}
	for _, cdr := range srv.Committed {
		if cdr.AnsweredAt == 0 {
			continue
		}
		mos := cdr.MeasuredMOS
		if mos == 0 {
			mos = cdr.MOS
		}
		min := cdr.Duration.Minutes()
		row.CarriedMinutes += min
		row.MOSMinutes += mos * min
	}
	if row.CarriedMinutes > 0 {
		row.MeanMOS = row.MOSMinutes / row.CarriedMinutes
	}
	for _, tr := range srv.Degradation {
		if tr.To > row.PeakStage {
			row.PeakStage = tr.To
		}
	}
	return row
}

// Row returns the named strategy's row, or nil.
func (t StrategyFrontierTable) Row(strategy string) *StrategyFrontierRow {
	for i := range t.Rows {
		if t.Rows[i].Strategy == strategy {
			return &t.Rows[i]
		}
	}
	return nil
}

// WriteStrategyFrontier renders the table.
func WriteStrategyFrontier(w io.Writer, t StrategyFrontierTable) {
	fmt.Fprintf(w, "Strategy frontier: 1.5x-capacity surge, seed %d (MOS-weighted carried minutes)\n", t.Seed)
	fmt.Fprintf(w, "%-12s%8s%8s%10s%8s%10s%12s%8s%9s  %s\n",
		"strategy", "est", "block", "throttle", "fail",
		"min", "MOS-min", "MOS", "CPU", "peak stage")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-12s%8d%8d%10d%8d%10.1f%12.1f%8.2f%8.0f%%  %s\n",
			r.Strategy, r.Established, r.Blocked, r.Throttled, r.Failed,
			r.CarriedMinutes, r.MOSMinutes, r.MeanMOS, r.CPUMean, r.PeakStage)
	}
}
