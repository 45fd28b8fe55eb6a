package monitor

import (
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Sample is one per-second reading of the experiment: per-tick deltas
// of the load counters, the instantaneous channel gauge, and
// setup-latency quantiles over the calls that completed setup during
// the tick — the rows behind a Fig. 5-style blocking-vs-time plot.
type Sample struct {
	T        float64 `json:"t"`        // seconds since sampling started
	Offered  uint64  `json:"offered"`  // new INVITEs this second
	Blocked  uint64  `json:"blocked"`  // admission rejections this second
	Answered uint64  `json:"answered"` // calls established this second
	Active   int     `json:"active"`   // channels in use at tick time
	Retrans  uint64  `json:"retrans"`  // SIP retransmissions this second
	RTP      uint64  `json:"rtp"`      // relayed RTP packets this second
	Drops    uint64  `json:"drops"`    // relay packets dropped this second
	// Blocking is Blocked/Offered within the tick; 0 with no offers.
	Blocking float64 `json:"blocking"`
	// SetupN and the quantiles describe INVITE→200 setup times recorded
	// this second (zero when no call completed setup).
	SetupN   uint64  `json:"setup_n"`
	SetupP50 float64 `json:"setup_p50"`
	SetupP90 float64 `json:"setup_p90"`
	SetupP99 float64 `json:"setup_p99"`
	// MeasuredN and MeasuredP50 describe the sensor-measured MOS of
	// calls that tore down this second (zero when none carried media).
	MeasuredN   uint64  `json:"mos_n"`
	MeasuredP50 float64 `json:"mos_p50"`
}

// Sampler polls a telemetry registry once per clock second and hands
// each Sample to its observer, keeping no series of its own. It
// pre-resolves every handle at construction — each tick is then a
// handful of atomic loads, cheap enough that the engine's allocs/op
// budget is unaffected (a full Registry.Snapshot per tick would not be).
//
// The clock is the single time source shared with the PBX's call
// stamps, so simulated and real-UDP runs yield comparable series.
type Sampler struct {
	clock transport.Clock
	timer transport.RearmTimer

	offered  func() float64
	blocked  func() float64
	answered func() float64
	active   func() float64
	retrans  func() float64
	rtp      func() float64
	drops    func() float64

	setup    histDelta // INVITE→200 setup seconds
	measured histDelta // sensor-measured MOS at teardown

	prevOffered, prevBlocked, prevAnswered float64
	prevRetrans, prevRTP, prevDrops        float64

	// observer, when set, sees every finished Sample in tick order —
	// the hook the SLO evaluator and the runs' series ride on.
	observer func(Sample)

	// mu orders a tick against Stop: on the wall clock the tick runs on
	// a timer goroutine and Stop on the caller's. In the simulator both
	// are events of one shard and the lock is never contended.
	mu      sync.Mutex
	start   time.Duration
	lastT   time.Duration
	stopped bool
}

// zero is the reader for families a run did not register.
func zero() float64 { return 0 }

func reader(reg *telemetry.Registry, name string) func() float64 {
	if fn := reg.ValueFunc(name); fn != nil {
		return fn
	}
	return zero
}

// NewSampler binds a sampler to the registry's PBX/SIP/relay families.
// Missing families read as zero, so signalling-only or partially
// instrumented runs still sample.
func NewSampler(reg *telemetry.Registry, clock transport.Clock) *Sampler {
	sp := &Sampler{
		clock:    clock,
		offered:  reader(reg, "pbx_invites_total"),
		blocked:  reader(reg, "pbx_blocked_total"),
		answered: reader(reg, "pbx_calls_established_total"),
		active:   reader(reg, "pbx_active_channels"),
		retrans:  reader(reg, "sip_retransmissions_total"),
		rtp:      reader(reg, "rtp_relay_packets_total"),
		drops:    reader(reg, "rtp_relay_dropped_total"),
		setup:    newHistDelta(reg.FindHistogram("pbx_call_setup_seconds")),
		measured: newHistDelta(reg.FindHistogram("pbx_call_mos_measured")),
	}
	return sp
}

// histDelta turns a cumulative histogram into per-tick bucket counts.
// Its three bucket slices are allocated once; a tick loads into cur,
// differences against prev and swaps the two, allocating nothing.
type histDelta struct {
	h                *telemetry.Histogram // nil: family not registered
	bounds           []float64
	cur, prev, delta []uint64
	prevCount        uint64
}

func newHistDelta(h *telemetry.Histogram) histDelta {
	if h == nil {
		return histDelta{}
	}
	n := h.NumBuckets()
	return histDelta{
		h:      h,
		bounds: h.Bounds(),
		cur:    make([]uint64, n),
		prev:   make([]uint64, n),
		delta:  make([]uint64, n),
	}
}

// tick returns how many observations arrived since the last tick;
// when that is non-zero, quantile reads over just those.
func (d *histDelta) tick() uint64 {
	if d.h == nil {
		return 0
	}
	count, _ := d.h.Load(d.cur)
	n := count - d.prevCount
	if n > 0 {
		for i := range d.cur {
			d.delta[i] = d.cur[i] - d.prev[i]
		}
	}
	d.cur, d.prev = d.prev, d.cur
	d.prevCount = count
	return n
}

// quantile is the q-quantile of the last tick's observations.
func (d *histDelta) quantile(q float64) float64 {
	return telemetry.QuantileFromCounts(d.bounds, d.delta, q)
}

// SetObserver installs the per-sample hook (the SLO evaluator, a run
// collecting its series), invoked synchronously after each tick's
// Sample is complete. Must be set before Start.
func (sp *Sampler) SetObserver(fn func(Sample)) { sp.observer = fn }

// Start begins per-second sampling at the next whole second. The tick
// reuses one rearmed timer, so steady-state sampling allocates nothing
// of its own.
func (sp *Sampler) Start() {
	sp.start = sp.clock.Now()
	sp.lastT = sp.start
	sp.timer = transport.NewRearmTimer(sp.clock, sp.tick)
	sp.timer.Schedule(time.Second)
}

func (sp *Sampler) tick() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.stopped {
		return
	}
	sp.observe(sp.clock.Now())
	sp.timer.Schedule(time.Second)
}

// observe takes one sample at virtual time now.
func (sp *Sampler) observe(now time.Duration) {
	s := Sample{
		T:      (now - sp.start).Seconds(),
		Active: int(sp.active()),
	}
	offered, blocked, answered := sp.offered(), sp.blocked(), sp.answered()
	retrans, rtpPkts, drops := sp.retrans(), sp.rtp(), sp.drops()
	s.Offered = uint64(offered - sp.prevOffered)
	s.Blocked = uint64(blocked - sp.prevBlocked)
	s.Answered = uint64(answered - sp.prevAnswered)
	s.Retrans = uint64(retrans - sp.prevRetrans)
	s.RTP = uint64(rtpPkts - sp.prevRTP)
	s.Drops = uint64(drops - sp.prevDrops)
	sp.prevOffered, sp.prevBlocked, sp.prevAnswered = offered, blocked, answered
	sp.prevRetrans, sp.prevRTP, sp.prevDrops = retrans, rtpPkts, drops
	if s.Offered > 0 {
		s.Blocking = float64(s.Blocked) / float64(s.Offered)
	}

	if s.SetupN = sp.setup.tick(); s.SetupN > 0 {
		s.SetupP50 = sp.setup.quantile(0.50)
		s.SetupP90 = sp.setup.quantile(0.90)
		s.SetupP99 = sp.setup.quantile(0.99)
	}
	if s.MeasuredN = sp.measured.tick(); s.MeasuredN > 0 {
		s.MeasuredP50 = sp.measured.quantile(0.50)
	}

	sp.lastT = now
	if sp.observer != nil {
		sp.observer(s)
	}
}

// Stop halts sampling, flushing a final partial-second sample when
// time advanced past the last tick.
func (sp *Sampler) Stop() { sp.StopAt(sp.clock.Now()) }

// StopAt halts sampling with the final partial-second sample stamped at
// now — the virtual time the stopping decision was made. A sharded run
// stages the stop as a barrier control, so the clock has moved past the
// decision by the time it applies; passing the decision time keeps the
// flushed sample identical to the single-threaded engine's.
func (sp *Sampler) StopAt(now time.Duration) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.stopped {
		return
	}
	sp.stopped = true
	if sp.timer != nil {
		sp.timer.Stop()
	}
	if now > sp.lastT {
		sp.observe(now)
	}
}

// SchedStatser is anything exposing scheduler counters: a single
// netsim.Scheduler or a netsim.ShardGroup summing across shards.
type SchedStatser interface {
	Stats() netsim.SchedStats
}

// Scheduler telemetry family names (see the lint-metrics rule: one
// snake_case const per family, registrations only through it).
const (
	mSchedEvents    = "sched_events_total"
	mSchedScheduled = "sched_scheduled_total"
	mSchedCancelled = "sched_cancelled_total"
	mSchedPending   = "sched_pending_events"
	mSchedWheel     = "sched_wheel_items"
	mSchedOverflow  = "sched_overflow_depth"
	mSchedVirtual   = "sched_virtual_seconds"
)

// RegisterScheduler exposes the netsim scheduler's internals as
// pull-style sched_* families: the values are read from
// Scheduler.Stats() when a snapshot or exposition runs, so the event
// loop itself pays nothing per event.
func RegisterScheduler(reg *telemetry.Registry, sched SchedStatser) {
	reg.CounterFunc(mSchedEvents, "events fired by the virtual-time scheduler",
		func() float64 { return float64(sched.Stats().Fired) })
	reg.CounterFunc(mSchedScheduled, "events ever scheduled",
		func() float64 { return float64(sched.Stats().Scheduled) })
	reg.CounterFunc(mSchedCancelled, "timers stopped before firing",
		func() float64 { return float64(sched.Stats().Cancelled) })
	reg.GaugeFunc(mSchedPending, "live scheduled events",
		func() float64 { return float64(sched.Stats().Pending) })
	reg.GaugeFunc(mSchedWheel, "items resident in timing-wheel slots",
		func() float64 { return float64(sched.Stats().WheelItems) })
	reg.GaugeFunc(mSchedOverflow, "far-future items in the overflow heap",
		func() float64 { return float64(sched.Stats().OverflowDepth) })
	reg.GaugeFunc(mSchedVirtual, "virtual time at snapshot",
		func() float64 { return sched.Stats().Now.Seconds() })
}
