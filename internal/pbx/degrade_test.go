package pbx

import (
	"testing"
	"time"
)

// tickCfg is the test tuning: evenly spaced thresholds so each
// transition is reachable in a short script. The debounce is the
// ladder's own: 2 ticks up, 5 down.
func tickCfg() DegradationConfig {
	return DegradationConfig{Enter: [4]float64{0.50, 0.60, 0.70, 0.80}}
}

// feed drives n ticks of constant CPU pressure (cpu is the raw percent)
// and returns the final stage.
func feed(d *DegradationController, at *time.Duration, cpu float64, n int) DegradationStage {
	st := d.Stage()
	for i := 0; i < n; i++ {
		*at += time.Second
		st = d.Evaluate(*at, DegradationSignals{CPU: cpu})
	}
	return st
}

// TestDegradationLadderTransitions walks every escalation and every
// relaxation of the ladder, checking the debounce on both directions
// and the one-rung-per-tick rule.
func TestDegradationLadderTransitions(t *testing.T) {
	d := NewDegradationController(tickCfg())
	var at time.Duration

	// Escalate one rung at a time. Each climb needs escalateTicks=2
	// consecutive hot ticks; a single hot tick must not move the stage.
	climbs := []struct {
		cpu  float64
		want DegradationStage
	}{
		{55, StageCodecDowngrade},   // ≥ Enter[0]=0.50
		{65, StagePassthroughOnly},  // ≥ Enter[1]=0.60
		{75, StageUpstreamThrottle}, // ≥ Enter[2]=0.70
		{85, StageBlock},            // ≥ Enter[3]=0.80
	}
	for _, c := range climbs {
		if st := feed(d, &at, c.cpu, 1); st != c.want-1 {
			t.Fatalf("one hot tick at cpu=%v moved stage to %v (debounce broken)", c.cpu, st)
		}
		if st := feed(d, &at, c.cpu, 1); st != c.want {
			t.Fatalf("two hot ticks at cpu=%v: stage=%v, want %v", c.cpu, st, c.want)
		}
	}

	// At the top, extreme pressure must stay clamped at StageBlock.
	if st := feed(d, &at, 99, 5); st != StageBlock {
		t.Fatalf("stage above StageBlock: %v", st)
	}

	// Relax one rung at a time. Each descent needs relaxTicks=5
	// consecutive cool ticks below the current rung's Enter − 0.10.
	descents := []struct {
		cpu  float64
		want DegradationStage
	}{
		{65, StageUpstreamThrottle}, // < Enter[3]−0.10 ≈ 0.70
		{55, StagePassthroughOnly},  // < Enter[2]−0.10 = 0.60
		{45, StageCodecDowngrade},   // < Enter[1]−0.10 = 0.50
		{35, StageNormal},           // < Enter[0]−0.10 = 0.40
	}
	for _, c := range descents {
		if st := feed(d, &at, c.cpu, 4); st != c.want+1 {
			t.Fatalf("four cool ticks at cpu=%v moved stage to %v (relax debounce broken)", c.cpu, st)
		}
		if st := feed(d, &at, c.cpu, 1); st != c.want {
			t.Fatalf("five cool ticks at cpu=%v: stage=%v, want %v", c.cpu, st, c.want)
		}
	}

	// Below everything at StageNormal: stays put.
	if st := feed(d, &at, 5, 5); st != StageNormal {
		t.Fatalf("stage below StageNormal: %v", st)
	}

	// The timeline recorded exactly the 8 transitions, in order.
	tl := d.Timeline()
	if len(tl) != 8 {
		t.Fatalf("timeline has %d transitions, want 8", len(tl))
	}
	for i, tr := range tl {
		if i < 4 && tr.To != tr.From+1 {
			t.Fatalf("transition %d is not a single-rung climb: %v -> %v", i, tr.From, tr.To)
		}
		if i >= 4 && tr.To != tr.From-1 {
			t.Fatalf("transition %d is not a single-rung descent: %v -> %v", i, tr.From, tr.To)
		}
	}
}

// TestDegradationHysteresisBand parks the pressure between Exit and
// Enter: the stage must hold indefinitely, and the band must also reset
// a partially accumulated debounce in either direction.
func TestDegradationHysteresisBand(t *testing.T) {
	d := NewDegradationController(tickCfg())
	var at time.Duration
	feed(d, &at, 55, 2) // climb to CodecDowngrade
	if d.Stage() != StageCodecDowngrade {
		t.Fatalf("setup failed: stage=%v", d.Stage())
	}

	// Band for stage 1 is [Enter[0]−0.10, Enter[1]) = [0.40, 0.60).
	if st := feed(d, &at, 45, 20); st != StageCodecDowngrade {
		t.Fatalf("stage moved inside hysteresis band: %v", st)
	}

	// One hot tick, then a band tick, then one hot tick: the band tick
	// must have reset the escalate counter, so no climb yet.
	feed(d, &at, 65, 1)
	feed(d, &at, 45, 1)
	if st := feed(d, &at, 65, 1); st != StageCodecDowngrade {
		t.Fatalf("escalate debounce not reset by band tick: %v", st)
	}

	// Four cool ticks, a band tick, four cool ticks: no descent either.
	feed(d, &at, 45, 1) // clears the hot counter
	feed(d, &at, 35, 4)
	feed(d, &at, 45, 1)
	if st := feed(d, &at, 35, 4); st != StageCodecDowngrade {
		t.Fatalf("relax debounce not reset by band tick: %v", st)
	}
}

// TestDegradationPressureTerms checks that each sensor dimension can
// drive the pressure on its own, and that the max wins.
func TestDegradationPressureTerms(t *testing.T) {
	d := NewDegradationController(DegradationConfig{})

	cases := []struct {
		name string
		sig  DegradationSignals
		want float64
	}{
		{"cpu", DegradationSignals{CPU: 70}, 0.70},
		{"drop", DegradationSignals{DropRate: dropRef / 2}, 0.50},
		{"mos at floor", DegradationSignals{MOS: mosFloor}, 0},
		{"mos floor breach", DegradationSignals{MOS: (mosFloor + 1.0) / 2},
			0.5}, // halfway from floor to the E-model minimum
		{"mos zero means unscored", DegradationSignals{MOS: 0}, 0},
		{"max wins", DegradationSignals{CPU: 30, DropRate: dropRef}, 1.0},
	}
	for _, c := range cases {
		if got := d.Pressure(c.sig); !closeTo(got, c.want, 1e-9) {
			t.Errorf("%s: pressure=%v, want %v", c.name, got, c.want)
		}
	}
}

func closeTo(a, b, eps float64) bool {
	if a > b {
		a, b = b, a
	}
	return b-a <= eps
}

// TestDegradationDefaults checks the documented default tuning.
func TestDegradationDefaults(t *testing.T) {
	cfg := NewDegradationController(DegradationConfig{}).Config()
	if cfg.Enter != [4]float64{0.70, 0.78, 0.86, 0.94} {
		t.Errorf("default Enter = %v", cfg.Enter)
	}
	if cfg.ThrottleWindow != 10 {
		t.Errorf("default ThrottleWindow = %d, want 10", cfg.ThrottleWindow)
	}
}

// TestOccupancyMonotoneInLoad is the property test for the EWMA-damped
// occupancy controller (Admission.ShedAt): the admit verdict must be monotone non-increasing
// in both the instantaneous channel count and the occupancy EWMA —
// raising either load dimension can only flip admit→reject, never
// reject→admit.
func TestOccupancyMonotoneInLoad(t *testing.T) {
	row := Admission{ShedAt: 0.7}
	admit := func(ch int, ewma float64) bool {
		reason, _ := row.decide(100, admissionState{Channels: ch, OccupancyEWMA: ewma})
		return reason == admitted
	}
	for ch := 0; ch <= 100; ch += 5 {
		for e := 0.0; e <= 100; e += 2.5 {
			ok := admit(ch, e)
			// Monotone in channels.
			if ch > 0 && !admit(ch-5, e) && ok {
				t.Fatalf("non-monotone in channels: admit(%d,%v)=false but admit(%d,%v)=true",
					ch-5, e, ch, e)
			}
			// Monotone in EWMA.
			if e > 0 && !admit(ch, e-2.5) && ok {
				t.Fatalf("non-monotone in EWMA: admit(%d,%v)=false but admit(%d,%v)=true",
					ch, e-2.5, ch, e)
			}
			// The dampened dimension really gates: an idle instantaneous
			// count with a saturated EWMA must still reject.
			if ch == 0 && e >= 70 && ok {
				t.Fatalf("EWMA=%v above target did not gate admission", e)
			}
		}
	}
}

// TestDegradationStageNames pins the rung labels that telemetry, call
// events and timelines carry.
func TestDegradationStageNames(t *testing.T) {
	want := []string{"normal", "codec-downgrade", "passthrough-only", "upstream-throttle", "block"}
	for st := StageNormal; st <= StageBlock; st++ {
		if got := st.String(); got != want[st] {
			t.Errorf("stage %d: String() = %q, want %q", int(st), got, want[st])
		}
	}
	if got := DegradationStage(degradationStageCount).String(); got != "unknown" {
		t.Errorf("out-of-range stage: String() = %q, want \"unknown\"", got)
	}
}
