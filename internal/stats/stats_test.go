package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	const mean = 120.0 // the paper's hold time
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(mean))
	}
	if math.Abs(s.Mean()-mean) > 1.5 {
		t.Errorf("exp mean = %v, want ~%v", s.Mean(), mean)
	}
	// Exponential: stddev == mean.
	if math.Abs(s.Stddev()-mean)/mean > 0.02 {
		t.Errorf("exp stddev = %v, want ~%v", s.Stddev(), mean)
	}
	if s.Min() < 0 {
		t.Errorf("negative exponential sample %v", s.Min())
	}
}

func TestExpDegenerate(t *testing.T) {
	r := NewRNG(1)
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Error("Exp with non-positive mean should be 0")
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(13)
	for _, mean := range []float64{0.5, 3, 12, 29.9, 30.1, 60, 333} {
		var s Summary
		for i := 0; i < 50000; i++ {
			s.Add(float64(r.Poisson(mean)))
		}
		if math.Abs(s.Mean()-mean)/mean > 0.03 {
			t.Errorf("poisson(%v) mean = %v", mean, s.Mean())
		}
		// Poisson variance equals the mean.
		if math.Abs(s.Variance()-mean)/mean > 0.06 {
			t.Errorf("poisson(%v) variance = %v", mean, s.Variance())
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	r := NewRNG(1)
	if r.Poisson(0) != 0 || r.Poisson(-4) != 0 {
		t.Error("Poisson with non-positive mean should be 0")
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(17)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Norm(20, 5))
	}
	if math.Abs(s.Mean()-20) > 0.1 {
		t.Errorf("norm mean = %v", s.Mean())
	}
	if math.Abs(s.Stddev()-5) > 0.1 {
		t.Errorf("norm stddev = %v", s.Stddev())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = float64(i)
			}
			// Tame magnitudes to keep float comparisons meaningful.
			xs[i] = math.Mod(xs[i], 1e6)
		}
		var whole Summary
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var a, b Summary
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(whole.Mean())
		return math.Abs(a.Mean()-whole.Mean())/scale < 1e-9 &&
			math.Abs(a.Variance()-whole.Variance())/(1+whole.Variance()) < 1e-6 &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAddN(t *testing.T) {
	var a, b Summary
	a.AddN(3.5, 4)
	for i := 0; i < 4; i++ {
		b.Add(3.5)
	}
	if a.Mean() != b.Mean() || a.N() != b.N() {
		t.Error("AddN differs from repeated Add")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean([1 2 3]) != 2")
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(120)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(200)
	}
}
