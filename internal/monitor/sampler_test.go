package monitor

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// samplerRig is a small registry carrying a subset of the families the
// sampler reads, on a simulated clock.
type samplerRig struct {
	sched                     *netsim.Scheduler
	offered, blocked, retrans *telemetry.Counter
	active                    *telemetry.Gauge
	setup                     *telemetry.Histogram
	sampler                   *Sampler
	series                    []Sample
}

// newSamplerRig registers offered / blocked / retransmission counters,
// the channel gauge and the setup histogram (bounds 0.1 s … 1 s), and
// leaves every other family the sampler reads unregistered.
func newSamplerRig() *samplerRig {
	reg := telemetry.NewRegistry()
	r := &samplerRig{
		sched:   netsim.NewScheduler(),
		offered: reg.Counter("pbx_invites_total", "test"),
		blocked: reg.Counter("pbx_blocked_total", "test"),
		retrans: reg.Counter("sip_retransmissions_total", "test"),
		active:  reg.Gauge("pbx_active_channels", "test"),
		setup:   reg.Histogram("pbx_call_setup_seconds", "test", telemetry.LinearBuckets(0.1, 0.1, 10)),
	}
	r.sampler = NewSampler(reg, transport.SimClock{Sched: r.sched})
	r.sampler.SetObserver(func(s Sample) { r.series = append(r.series, s) })
	return r
}

// at runs fn at virtual time t.
func (r *samplerRig) at(t time.Duration, fn func()) {
	r.sched.At(t, func(time.Duration) { fn() })
}

func (r *samplerRig) run(t *testing.T, until time.Duration) {
	t.Helper()
	if _, err := r.sched.Run(until); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerTickDeltas: each sample carries what moved during its own
// second, not the running total, and the gauge as it reads at the tick.
func TestSamplerTickDeltas(t *testing.T) {
	r := newSamplerRig()
	r.sampler.Start()
	r.at(500*time.Millisecond, func() { r.offered.Add(4); r.blocked.Add(1); r.active.Set(3) })
	r.at(1500*time.Millisecond, func() { r.offered.Add(2); r.retrans.Add(5); r.active.Set(2) })
	// Nothing moves in the third second.
	r.run(t, 3*time.Second)

	want := []Sample{
		{T: 1, Offered: 4, Blocked: 1, Active: 3, Blocking: 0.25},
		{T: 2, Offered: 2, Active: 2, Retrans: 5},
		{T: 3, Active: 2},
	}
	if !reflect.DeepEqual(r.series, want) {
		t.Errorf("series:\n got %+v\nwant %+v", r.series, want)
	}
}

// TestSamplerSetupQuantiles: the setup quantiles of a tick come from
// that tick's histogram delta alone, so a slow second is not diluted by
// the fast ones before it.
func TestSamplerSetupQuantiles(t *testing.T) {
	r := newSamplerRig()
	r.sampler.Start()
	r.at(100*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			r.setup.Observe(0.05) // first bucket, (0, 0.1]
		}
	})
	r.at(1100*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			r.setup.Observe(0.95) // last finite bucket, (0.9, 1.0]
		}
	})
	r.run(t, 3*time.Second)

	if len(r.series) != 3 {
		t.Fatalf("%d samples, want 3", len(r.series))
	}
	first, second, idle := r.series[0], r.series[1], r.series[2]
	if first.SetupN != 10 || !near(first.SetupP50, 0.05) || !near(first.SetupP99, 0.099) {
		t.Errorf("first second: n=%d p50=%g p99=%g, want 10 / 0.05 / 0.099",
			first.SetupN, first.SetupP50, first.SetupP99)
	}
	if second.SetupN != 4 || !near(second.SetupP50, 0.95) || !near(second.SetupP90, 0.99) {
		t.Errorf("second second: n=%d p50=%g p90=%g, want 4 / 0.95 / 0.99",
			second.SetupN, second.SetupP50, second.SetupP90)
	}
	if idle.SetupN != 0 || idle.SetupP50 != 0 || idle.SetupP99 != 0 {
		t.Errorf("idle second: n=%d p50=%g p99=%g, want all zero",
			idle.SetupN, idle.SetupP50, idle.SetupP99)
	}
}

// TestSamplerStopAtFlushesPartialSecond: StopAt stamps a final sample
// at the decision time with what moved since the last whole tick, and
// nothing after it ticks again.
func TestSamplerStopAtFlushesPartialSecond(t *testing.T) {
	r := newSamplerRig()
	r.sampler.Start()
	r.at(1200*time.Millisecond, func() { r.offered.Add(3) })
	r.at(1500*time.Millisecond, func() { r.sampler.StopAt(1500 * time.Millisecond) })
	r.at(1700*time.Millisecond, func() { r.offered.Add(9) })
	r.run(t, 4*time.Second)

	want := []Sample{{T: 1}, {T: 1.5, Offered: 3}}
	if !reflect.DeepEqual(r.series, want) {
		t.Errorf("series:\n got %+v\nwant %+v", r.series, want)
	}
	// A second stop, or one at a time already sampled, adds nothing.
	r.sampler.Stop()
	if len(r.series) != 2 {
		t.Errorf("a second stop added a sample: %+v", r.series)
	}
}

// TestSamplerMissingFamiliesReadZero: a registry with none of the
// sampler's families still samples, every field zero.
func TestSamplerMissingFamiliesReadZero(t *testing.T) {
	sched := netsim.NewScheduler()
	sp := NewSampler(telemetry.NewRegistry(), transport.SimClock{Sched: sched})
	var series []Sample
	sp.SetObserver(func(s Sample) { series = append(series, s) })
	sp.Start()
	if _, err := sched.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []Sample{{T: 1}, {T: 2}}
	if !reflect.DeepEqual(series, want) {
		t.Errorf("series:\n got %+v\nwant %+v", series, want)
	}
}

// TestSamplerObserveAllocs: a tick allocates nothing, histogram deltas
// included — the sampler rides every sim run's event loop.
func TestSamplerObserveAllocs(t *testing.T) {
	r := newSamplerRig()
	r.sampler.SetObserver(func(Sample) {})
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		r.offered.Inc()
		r.setup.Observe(0.2)
		now += time.Second
		r.sampler.observe(now)
	})
	if allocs != 0 {
		t.Errorf("observe: %v allocs per tick, want 0", allocs)
	}
}

func near(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

// TestRegisterSchedulerReadsStats: the sched_* families are pull views
// of the scheduler's own counters.
func TestRegisterSchedulerReadsStats(t *testing.T) {
	sched := netsim.NewScheduler()
	reg := telemetry.NewRegistry()
	RegisterScheduler(reg, sched)
	sched.At(time.Second, func(time.Duration) {})
	sched.At(5*time.Second, func(time.Duration) {}).Stop()
	sched.At(time.Hour, func(time.Duration) {})
	if _, err := sched.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		mSchedEvents:    float64(st.Fired),
		mSchedScheduled: float64(st.Scheduled),
		mSchedCancelled: float64(st.Cancelled),
		mSchedPending:   float64(st.Pending),
		mSchedWheel:     float64(st.WheelItems),
		mSchedOverflow:  float64(st.OverflowDepth),
		mSchedVirtual:   st.Now.Seconds(),
	} {
		if got := snap.Scalar(name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if st.Fired != 1 || st.Cancelled != 1 {
		t.Errorf("stats %+v: want 1 fired, 1 cancelled", st)
	}
}
