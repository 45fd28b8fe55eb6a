package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pbx"
)

// TestLadderDominatesStatic is the frontier acceptance criterion: at
// the surge operating point the graceful-degradation ladder must carry
// strictly more MOS-weighted minutes than the static 503 baseline, and
// it must do so by actually using the ladder (reaching the
// upstream-throttle rung and shedding load client-side). The seed-1
// table, the one EXPERIMENTS.md quotes, is pinned byte for byte.
func TestLadderDominatesStatic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 160} {
		tbl, err := RunStrategyFrontier(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		WriteStrategyFrontier(&out, tbl)
		os.Stderr.Write(out.Bytes())
		if seed == 1 {
			checkGolden(t, filepath.Join("testdata", "frontier_seed1.txt"), out.Bytes())
		}

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

// checkGolden pins got against the golden file; UPDATE_GOLDEN=1
// rewrites it.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n got:\n%s\n want:\n%s", golden, got, want)
	}
}
