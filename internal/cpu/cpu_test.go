package cpu

import (
	"testing"
	"testing/quick"
)

func TestTableIBands(t *testing.T) {
	// The model must land near the paper's Table I CPU bands for the
	// six workloads. The bands are coarse ("15% to 20%"); we accept a
	// ±7-point tolerance around the band midpoint — the shape matters,
	// not the 2011 Xeon's absolute numbers.
	m := DefaultModel()
	cases := []struct {
		name           string
		active         int     // mean concurrent calls
		attempts       float64 // call attempts per second (A/h)
		errors         float64 // error responses per second
		bandLo, bandHi float64
	}{
		{"A=40", 40, 40.0 / 120, 0, 15, 20},
		{"A=80", 80, 80.0 / 120, 0, 25, 30},
		{"A=120", 120, 120.0 / 120, 0, 30, 35},
		{"A=160", 150, 160.0 / 120, 0.08, 35, 40},
		{"A=200", 158, 200.0 / 120, 0.35, 45, 50},
		{"A=240", 165, 240.0 / 120, 0.58, 55, 60},
	}
	for _, c := range cases {
		u := m.UtilizationWith(c.active, c.attempts, c.errors, 0)
		mid := (c.bandLo + c.bandHi) / 2
		if u < mid-7 || u > mid+7 {
			t.Errorf("%s: util %.1f%%, paper band [%g, %g]", c.name, u, c.bandLo, c.bandHi)
		}
		if u >= 60 {
			t.Errorf("%s: util %.1f%% breaches the paper's <60%% ceiling", c.name, u)
		}
	}
}

func TestUtilizationMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(calls uint8, att uint8) bool {
		c := int(calls)
		a := float64(att) / 50
		return m.UtilizationWith(c+1, a, 0, 0) >= m.UtilizationWith(c, a, 0, 0) &&
			m.UtilizationWith(c, a+0.1, 0, 0) >= m.UtilizationWith(c, a, 0, 0) &&
			m.UtilizationWith(c, a, 1, 0) >= m.UtilizationWith(c, a, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationClamped(t *testing.T) {
	m := DefaultModel()
	if u := m.UtilizationWith(100000, 1000, 1000, 0); u != 100 {
		t.Errorf("util = %v, want clamp at 100", u)
	}
	if u := m.UtilizationWith(0, 0, 0, 0); u != m.BasePercent {
		t.Errorf("idle util = %v", u)
	}
	neg := Model{BasePercent: -5}
	if u := neg.UtilizationWith(0, 0, 0, 0); u != 0 {
		t.Errorf("negative util not clamped: %v", u)
	}
}

func TestDropProbability(t *testing.T) {
	m := DefaultModel()
	if p := m.DropProbability(m.OverloadKnee - 1); p != 0 {
		t.Errorf("drop below knee = %v", p)
	}
	if p := m.DropProbability(m.OverloadKnee); p != 0 {
		t.Errorf("drop at knee = %v", p)
	}
	mid := m.DropProbability((m.OverloadKnee + 100) / 2)
	if mid <= 0 || mid >= m.MaxDropProbability {
		t.Errorf("midpoint drop = %v", mid)
	}
	if p := m.DropProbability(100); p != m.MaxDropProbability {
		t.Errorf("drop at 100%% = %v, want %v", p, m.MaxDropProbability)
	}
	if p := m.DropProbability(1000); p != m.MaxDropProbability {
		t.Errorf("drop beyond 100%% = %v", p)
	}
}

func TestDropProbabilityDegenerateKnee(t *testing.T) {
	m := Model{OverloadKnee: 100, MaxDropProbability: 0.5}
	if p := m.DropProbability(150); p != 0 {
		t.Errorf("knee at 100 should never drop, got %v", p)
	}
}

// TestZeroModelIsNoModel: the zero Model reads 0 % for any activity and
// any extra term, and never drops a packet.
func TestZeroModelIsNoModel(t *testing.T) {
	var m Model
	f := func(calls uint16, att, errs, extra uint8) bool {
		return m.UtilizationWith(int(calls), float64(att), float64(errs), float64(extra)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if u := m.UtilizationWith(100000, 1000, 1000, 100); u != 0 {
		t.Errorf("zero model at saturation reads %v%%, want 0", u)
	}
	for _, u := range []float64{0, 50, 100, 1000} {
		if p := m.DropProbability(u); p != 0 {
			t.Errorf("zero model drops %v at %v%%", p, u)
		}
	}
}
