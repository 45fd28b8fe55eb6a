package bench

import (
	"os"
	"testing"

	"repro/internal/pbx"
)

// TestLadderDominatesStatic is the frontier acceptance criterion: at
// the surge operating point the graceful-degradation ladder must carry
// strictly more MOS-weighted minutes than the static 503 baseline, and
// it must do so by actually using the ladder (reaching the
// upstream-throttle rung and shedding load client-side).
func TestLadderDominatesStatic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 160} {
		tbl, err := RunStrategyFrontier(seed)
		if err != nil {
			t.Fatal(err)
		}
		WriteStrategyFrontier(os.Stderr, tbl)

		static := tbl.Row("static")
		ladder := tbl.Row("ladder")
		if static == nil || ladder == nil {
			t.Fatalf("seed %d: missing frontier rows: %+v", seed, tbl.Rows)
		}
		if ladder.MOSMinutes <= static.MOSMinutes {
			t.Errorf("seed %d: ladder MOS-minutes %.1f does not strictly exceed static %.1f",
				seed, ladder.MOSMinutes, static.MOSMinutes)
		}
		if ladder.PeakStage < pbx.StageUpstreamThrottle {
			t.Errorf("seed %d: ladder never reached upstream throttle (peak %v); the win is not the ladder's",
				seed, ladder.PeakStage)
		}
		if ladder.Throttled == 0 {
			t.Errorf("seed %d: ladder shed nothing client-side; closed loop inactive", seed)
		}
		if static.PeakStage != pbx.StageNormal || static.Throttled != 0 {
			t.Errorf("seed %d: static baseline ran degraded: peak=%v throttled=%d",
				seed, static.PeakStage, static.Throttled)
		}
	}
}
