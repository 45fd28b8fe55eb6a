package erlang

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// directB evaluates Eq. 2 in its printed factorial form using
// log-domain arithmetic, as an independent oracle for the recurrence.
func directB(a float64, n int) float64 {
	logA := math.Log(a)
	var terms []float64
	for i := 0; i <= n; i++ {
		lg, _ := math.Lgamma(float64(i) + 1)
		terms = append(terms, float64(i)*logA-lg)
	}
	maxT := terms[0]
	for _, t := range terms {
		if t > maxT {
			maxT = t
		}
	}
	var denom float64
	for _, t := range terms {
		denom += math.Exp(t - maxT)
	}
	return math.Exp(terms[n]-maxT) / denom
}

func TestBMatchesFactorialForm(t *testing.T) {
	cases := []struct {
		a Erlangs
		n int
	}{
		{1, 1}, {5, 5}, {10, 10}, {20, 25}, {40, 42}, {100, 110},
		{160, 165}, {200, 165}, {240, 165}, {0.5, 3}, {300, 280},
	}
	for _, c := range cases {
		got := B(c.a, c.n)
		want := directB(float64(c.a), c.n)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("B(%v,%d) = %v, factorial form = %v", c.a, c.n, got, want)
		}
	}
}

func TestBKnownValues(t *testing.T) {
	// Classical table values (Angus, "An Introduction to Erlang B and
	// Erlang C"): A=10 on N=10 -> 0.2146; A=100 on N=110 -> ~0.0231.
	if got := B(10, 10); math.Abs(got-0.21459) > 1e-4 {
		t.Errorf("B(10,10) = %v, want ~0.21459", got)
	}
	if got := B(5, 10); math.Abs(got-0.018385) > 1e-5 {
		t.Errorf("B(5,10) = %v, want ~0.018385", got)
	}
	if got := B(1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("B(1,1) = %v, want 0.5", got)
	}
	// B(A,1) = A/(1+A).
	if got := B(3, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("B(3,1) = %v, want 0.75", got)
	}
}

func TestBDegenerate(t *testing.T) {
	if got := B(0, 10); got != 0 {
		t.Errorf("B(0,10) = %v, want 0", got)
	}
	if got := B(-5, 10); got != 0 {
		t.Errorf("B(-5,10) = %v, want 0", got)
	}
	if got := B(10, 0); got != 1 {
		t.Errorf("B(10,0) = %v, want 1", got)
	}
	if got := B(10, -3); got != 1 {
		t.Errorf("B(10,-3) = %v, want 1", got)
	}
}

// below reports whether lo < hi, strictly while hi is
// representable: deep in the tail both blocking probabilities underflow
// to 0 and only lo <= hi can hold.
func below(lo, hi float64) bool {
	if hi > 0 {
		return lo < hi
	}
	return lo <= hi
}

// fixedQuick is a quick.Check config with a fixed seed, so a property
// test draws the same cases on every run.
func fixedQuick() *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(1))}
}

func TestBMonotoneInChannels(t *testing.T) {
	// Property: for fixed A, adding channels strictly reduces blocking.
	f := func(aRaw uint16, nRaw uint8) bool {
		a := Erlangs(1 + float64(aRaw%300))
		n := 1 + int(nRaw%200)
		return below(B(a, n+1), B(a, n))
	}
	if err := quick.Check(f, fixedQuick()); err != nil {
		t.Error(err)
	}
}

func TestBMonotoneInTraffic(t *testing.T) {
	// Property: for fixed N, more offered traffic means more blocking.
	f := func(aRaw uint16, nRaw uint8) bool {
		a := 0.5 + float64(aRaw%200)
		n := 1 + int(nRaw%150)
		return below(B(Erlangs(a), n), B(Erlangs(a+1), n))
	}
	if err := quick.Check(f, fixedQuick()); err != nil {
		t.Error(err)
	}
}

func TestBBounded(t *testing.T) {
	f := func(aRaw uint32, nRaw uint16) bool {
		a := Erlangs(float64(aRaw%100000) / 100)
		n := int(nRaw % 2000)
		b := B(a, n)
		return b >= 0 && b <= 1 && !math.IsNaN(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBRecurrenceIdentity(t *testing.T) {
	// Property: B satisfies its own defining recurrence
	// B(a,n) = a·B(a,n-1) / (n + a·B(a,n-1)).
	f := func(aRaw uint16, nRaw uint8) bool {
		a := 0.25 + float64(aRaw%400)
		n := 1 + int(nRaw%250)
		prev := B(Erlangs(a), n-1)
		want := a * prev / (float64(n) + a*prev)
		return math.Abs(B(Erlangs(a), n)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBFractionalMatchesIntegerPoints(t *testing.T) {
	for _, c := range []struct {
		a Erlangs
		n int
	}{{10, 10}, {40, 42}, {160, 165}, {3, 7}} {
		got := BFractional(c.a, float64(c.n))
		want := B(c.a, c.n)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("BFractional(%v,%d) = %v, want %v", c.a, c.n, got, want)
		}
	}
}

func TestBFractionalInterpolates(t *testing.T) {
	// The fractional value must lie strictly between the bracketing
	// integer values and decrease in x.
	a := Erlangs(50)
	for x := 40.5; x < 70; x += 3.2 {
		if x == math.Trunc(x) {
			continue
		}
		lo, hi := B(a, int(math.Ceil(x))), B(a, int(math.Floor(x)))
		got := BFractional(a, x)
		if !(got > lo && got < hi) {
			t.Errorf("BFractional(%v,%v) = %v not in (%v, %v)", a, x, got, lo, hi)
		}
	}
}

func TestTrafficEq1(t *testing.T) {
	// Paper Sec. IV: 3000 calls/busy-hour at 3 minutes = 150 Erlangs.
	if got := Traffic(3000, 3); got != 150 {
		t.Errorf("Traffic(3000,3) = %v, want 150", got)
	}
	// 50 calls/minute for an hour at 3 minutes.
	if got := Traffic(50*60, 3); got != 150 {
		t.Errorf("Traffic(3000,3) = %v, want 150", got)
	}
}

func TestTrafficRateRoundTrip(t *testing.T) {
	f := func(aRaw uint16) bool {
		a := Erlangs(1 + float64(aRaw%500))
		lambda := ArrivalRate(a, 120)
		return math.Abs(float64(TrafficRate(lambda, 120)-a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperSizingCheck(t *testing.T) {
	// Sec. IV: "3,000 calls (~50 calls per minute), with an average
	// duration of three minutes ... 165 simultaneous connections, the
	// blocking probability would be 1.8%".
	a := Traffic(3000, 3)
	pb := B(a, 165)
	if pb < 0.015 || pb > 0.022 {
		t.Errorf("B(150,165) = %.4f, paper reports ~1.8%%", pb)
	}
}

func TestPaperFigure7Anchors(t *testing.T) {
	// Sec. IV, Fig. 7 narrative with population 8000 and N=165:
	// 60% callers at 2.0 min -> <5% blocked; 2.5 min -> ~21%; 3 min -> >34%.
	pop := 8000.0
	n := 165
	b2 := B(Traffic(pop*0.60, 2.0), n)
	if b2 >= 0.05 {
		t.Errorf("2.0 min: Pb = %.4f, want < 0.05", b2)
	}
	b25 := B(Traffic(pop*0.60, 2.5), n)
	if b25 < 0.17 || b25 > 0.25 {
		t.Errorf("2.5 min: Pb = %.4f, want ~0.21", b25)
	}
	// At exactly 60% the 3-minute curve sits at ~32%; the paper's
	// "surpasses 34%" is reached just beyond, well before 65% of the
	// population. Assert both facts about the curve shape.
	b3 := B(Traffic(pop*0.60, 3.0), n)
	if b3 <= 0.30 || b3 >= 0.34 {
		t.Errorf("3.0 min @60%%: Pb = %.4f, want ~0.32", b3)
	}
	if b3at65 := B(Traffic(pop*0.65, 3.0), n); b3at65 <= 0.34 {
		t.Errorf("3.0 min @65%%: Pb = %.4f, want > 0.34", b3at65)
	}
}

func TestErlangC(t *testing.T) {
	// C >= B always (waiting is more likely than loss at same load).
	for _, c := range []struct {
		a Erlangs
		n int
	}{{5, 10}, {10, 15}, {100, 120}} {
		if C(c.a, c.n) < B(c.a, c.n) {
			t.Errorf("C(%v,%d) < B(%v,%d)", c.a, c.n, c.a, c.n)
		}
	}
	// Unstable regime saturates at 1.
	if got := C(20, 10); got != 1 {
		t.Errorf("C(20,10) = %v, want 1", got)
	}
	// Known value: A=2, N=3 -> C ~ 0.4444 (M/M/3 with rho=2/3).
	if got := C(2, 3); math.Abs(got-0.44444) > 1e-3 {
		t.Errorf("C(2,3) = %v, want ~0.4444", got)
	}
}

func TestEngsetConvergesToErlangB(t *testing.T) {
	// With total offered load fixed, Engset -> Erlang-B as sources grow.
	n := 20
	total := 15.0
	small := Engset(40, total/40, n)
	big := Engset(100000, total/100000, n)
	eb := B(Erlangs(total), n)
	if math.Abs(big-eb) > 0.01 {
		t.Errorf("Engset(1e5) = %v, ErlangB = %v; should converge", big, eb)
	}
	if small >= eb {
		t.Errorf("finite-source blocking %v should be below Erlang-B %v", small, eb)
	}
}

func TestEngsetFewSources(t *testing.T) {
	if got := Engset(10, 0.5, 10); got != 0 {
		t.Errorf("Engset with sources <= channels = %v, want 0", got)
	}
}

func TestChannelsFor(t *testing.T) {
	n, err := ChannelsFor(150, 0.018)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 165 channels give ~1.8% at 150 Erlangs.
	if n < 163 || n > 167 {
		t.Errorf("ChannelsFor(150, 1.8%%) = %d, want ~165", n)
	}
	// Verify minimality.
	if B(150, n) > 0.018 {
		t.Errorf("B(150,%d) = %v exceeds target", n, B(150, n))
	}
	if n > 0 && B(150, n-1) <= 0.018 {
		t.Errorf("N-1 = %d already meets target; not minimal", n-1)
	}
}

func TestChannelsForDegenerate(t *testing.T) {
	if _, err := ChannelsFor(10, 0); err == nil {
		t.Error("expected error for target 0")
	}
	if _, err := ChannelsFor(10, 1); err == nil {
		t.Error("expected error for target 1")
	}
	if n, err := ChannelsFor(0, 0.01); err != nil || n != 0 {
		t.Errorf("ChannelsFor(0) = %d, %v; want 0, nil", n, err)
	}
}

func TestTrafficFor(t *testing.T) {
	a, err := TrafficFor(165, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: inverse of B at the boundary.
	if pb := B(a, 165); math.Abs(pb-0.05) > 1e-6 {
		t.Errorf("B(TrafficFor(165,5%%)) = %v, want 0.05", pb)
	}
	// Paper abstract: >160 concurrent calls at <5% blocking.
	if a < 160 {
		t.Errorf("TrafficFor(165, 5%%) = %v Erlangs, want > 160", a)
	}
}

func TestChannelsForTrafficForConsistency(t *testing.T) {
	f := func(aRaw uint8, pbRaw uint8) bool {
		a := Erlangs(5 + float64(aRaw%200))
		target := 0.005 + float64(pbRaw%90)/1000 // (0.005, 0.095)
		n, err := ChannelsFor(a, target)
		if err != nil {
			return false
		}
		amax, err := TrafficFor(n, target)
		if err != nil {
			return false
		}
		return amax >= a // n channels admit at least a at that grade
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoad(t *testing.T) {
	l := Load{CallsPerHour: 3000, DurationMinutes: 3}
	if l.Erlangs() != 150 {
		t.Errorf("Load.Erlangs = %v, want 150", l.Erlangs())
	}
	if pb := l.Blocking(165); math.Abs(pb-B(150, 165)) > 1e-15 {
		t.Errorf("Load.Blocking mismatch: %v", pb)
	}
}

func BenchmarkErlangB165(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = B(160, 165)
	}
}

func BenchmarkChannelsFor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = ChannelsFor(150, 0.018)
	}
}
