package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// params is one run's input: everything else a workload does follows
// from these.
type params struct {
	seed    uint64
	seconds float64 // measuring time
	// scale multiplies every rate and population; 1 is the workload as
	// catalogued, the smoke tests run 0.1.
	scale float64
	// lingerCheck has an in-process run wait out the SIP transaction
	// linger timers (5 s) and check that no transaction is left.
	lingerCheck bool
}

func (p params) dur(share float64) time.Duration {
	return time.Duration(p.seconds * share * float64(time.Second))
}

// scaled is n × scale, at least 1.
func (p params) scaled(n int) int {
	if v := int(float64(n)*p.scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// check is one output verification; a failed one fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what one run of one workload produced.
type outcome struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Metrics holds the end-to-end metrics on an untraced run and the
	// per-layer metrics on a traced one. Layers holds whatever layer
	// figures an untraced run could read from outside on the way.
	Metrics map[string]float64 `json:"metrics"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	// Samples is the number of samples behind each percentile.
	Samples   map[string]int `json:"samples,omitempty"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Checks    []check        `json:"checks"`
	// Invalid lists reasons the run's timings cannot be trusted even
	// though its outputs were correct (a late generator, a dropped
	// packet in the synthetic CPU model).
	Invalid []string `json:"invalid,omitempty"`
}

func newOutcome(workload string, p params) *outcome {
	return &outcome{
		Workload: workload, Seed: p.seed,
		Metrics: map[string]float64{}, Layers: map[string]float64{}, Samples: map[string]int{},
	}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) equal(name string, got, want float64) {
	o.within(name, got, want, 0)
}

// within checks that got is want give or take slack.
func (o *outcome) within(name string, got, want, slack float64) {
	o.check(name, math.Abs(got-want) <= slack, "got %v, want %v ± %v", got, want, slack)
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (o *outcome) failedRatio() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// latencies fills the latency figures from samples: the median is the
// end-to-end metric; the tail percentiles are the load generator's
// per-layer metrics, because on a host whose hypervisor freezes it for
// tens of milliseconds a few times a minute a tail is one freeze more
// or less, not a property of the server (see README.md, "Steadiness").
func (o *outcome) latencies(samples []time.Duration) {
	us := durations(samples, time.Microsecond)
	o.Metrics["latency_p50_us"] = stats.Percentile(us, 50)
	o.Samples["latency_p50_us"] = len(us)
	for _, tail := range []struct {
		name string
		p    float64
	}{{"loadgen.latency_p90_us", 90}, {"loadgen.latency_p99_us", 99}} {
		o.Layers[tail.name] = stats.Percentile(us, tail.p)
		o.Samples[tail.name] = len(us)
	}
	if tail := supportedTail(len(us)); tail < 99 {
		o.Invalid = append(o.Invalid, fmt.Sprintf("loadgen.latency_p99_us rests on %d samples, which support only p%v", len(us), tail))
	}
}

// lateness reports how late the open-loop sends ran against their due
// times. More than 5 ms at the 99th percentile means the generator,
// not the server, shaped the measurement.
func (o *outcome) lateness(late []time.Duration) {
	ms := durations(late, time.Millisecond)
	p99 := stats.Percentile(ms, 99)
	o.Layers["loadgen.late_p99_ms"] = p99
	o.Samples["loadgen.late_p99_ms"] = len(ms)
	if p99 > 5 {
		o.Invalid = append(o.Invalid, fmt.Sprintf("loadgen.late_p99_ms = %.2f > 5: the generator ran late", p99))
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
