package main

import "time"

// supportedTail is the highest of p99.9 / p99 / p95 / p90 that still
// has at least ten samples beyond it, or 50 when n is too small for
// any tail — a percentile resting on fewer samples than that is one
// outlier, not a measurement.
func supportedTail(n int) float64 {
	for _, t := range []struct {
		p      float64
		beyond int // samples beyond p, per thousand
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}} {
		if n*t.beyond/1000 >= 10 {
			return t.p
		}
	}
	return 50
}

// durations converts latency samples to float64 values in unit, for
// stats.Percentile.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
