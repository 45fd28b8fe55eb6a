package telemetry

import "testing"

// The benchmarks below enforce the registry's zero-alloc contract: the
// record path (counter/gauge/histogram) must stay at 0 allocs/op so
// enabling telemetry cannot regress the engine's hot-path guarantee.
// make bench snapshots them; bench-check gates allocs/op rises.

func BenchmarkTelemetryCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_counter", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryGaugeSet(b *testing.B) {
	reg := NewRegistry()
	g := reg.Gauge("bench_gauge", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_hist", "", ExponentialBuckets(0.001, 2, 15))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 100)
	}
}

// TestRecordPathZeroAlloc pins the contract in the regular test suite
// too, so a regression fails go test, not only make bench-check.
func TestRecordPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("za_counter", "")
	g := reg.Gauge("za_gauge", "")
	h := reg.Histogram("za_hist", "", ExponentialBuckets(0.001, 2, 15))

	checks := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Inc() }},
		{"gauge", func() { g.Set(1) }},
		{"histogram", func() { h.Observe(0.03) }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(200, chk.fn); allocs != 0 {
			t.Errorf("%s record path: %v allocs/op, want 0", chk.name, allocs)
		}
	}
}
