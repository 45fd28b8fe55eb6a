package main

import (
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// An open-loop phase is driven from an absolute schedule: every due
// time is fixed from the seed before the phase starts, the pacer
// sleeps until each one, and latency is timed from the due time. A
// sender that falls behind therefore neither thins the offered load
// nor hides the wait it imposed on later requests — the two faults of
// a sleep-chained loop (see README, "Why not sipload").

// poissonSchedule returns the due offsets, from the phase start, of a
// Poisson arrival process of the given rate over dur.
func poissonSchedule(rng *stats.RNG, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.Exp(1 / rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// uniformSchedule returns n due offsets spaced 1/rate apart, the first
// at zero.
func uniformSchedule(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range due {
		due[i] = time.Duration(float64(i) * gap)
	}
	return due
}

// sleepUntil blocks until t and returns how late it woke (zero when t
// had not passed on entry and the wake-up was exact).
func sleepUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	if late := time.Since(t); late > 0 {
		return late
	}
	return 0
}

// openWindow is the most operations an open-loop phase keeps in flight.
// The rates the workloads offer need one or two; the cap only binds
// after the host froze the generator, when an uncapped pacer would catch
// up with one burst of hundreds of datagrams, overflow a socket buffer
// (about 150 datagrams on Linux's default) and turn the freeze into
// seconds of retransmission back-off. Latency is still timed from the
// due time, so the wait the cap imposes is counted, and reported as
// lateness.
const openWindow = 64

// pace blocks until due, and until fewer than openWindow operations of
// the phase are in flight, then counts the new one in and returns how
// late it starts.
func pace(due time.Time, pending *atomic.Int64) time.Duration {
	sleepUntil(due)
	for pending.Load() >= openWindow {
		time.Sleep(100 * time.Microsecond)
	}
	pending.Add(1)
	if late := time.Since(due); late > 0 {
		return late
	}
	return 0
}
