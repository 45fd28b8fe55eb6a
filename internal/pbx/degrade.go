package pbx

import "time"

// Graceful degradation: instead of jumping straight from "admit
// everything" to "503 everything" at the capacity cliff, the PBX walks
// a ladder of progressively harsher actuators — trade quality for
// capacity first, shed expensive work second, push back on upstream
// load third, and only block as the last rung. The design follows the
// SIP overload-control literature (RFC 7339's explicit-feedback model;
// the three-dimensional CAC work admitting on connection *and*
// communication quality): every rejected INVITE still costs CPU, so a
// server that degrades early carries more MOS-weighted minutes through
// an overload than one that rejects at the wall.
//
// The ladder:
//
//	Normal → CodecDowngrade → PassthroughOnly → UpstreamThrottle → Block
//
// Rung 1 re-orders the codec preference of *new* calls down the
// registry (G.711→G.729: lowest bitrate first), rung 2 refuses
// transcoded bridges (restricted passthrough-only re-offers; 488 when
// no intersection survives), rung 3 advertises a backoff window to
// upstream callers and balancers (Retry-After + X-Overload-Window),
// and rung 4 is the classic 503 block. Established calls are never
// touched: the stage is consulted at admission only, so no call is
// renegotiated mid-stream (a chaos invariant).

// DegradationStage is a rung of the graceful-degradation ladder.
type DegradationStage int

// The ladder's rungs, mildest first. Ordering is meaningful: actuators
// activate at "stage >= rung" so each rung includes all milder ones.
const (
	StageNormal DegradationStage = iota
	StageCodecDowngrade
	StagePassthroughOnly
	StageUpstreamThrottle
	StageBlock
)

// degradationStageCount is the number of ladder rungs.
const degradationStageCount = int(StageBlock) + 1

// String names the stage for telemetry labels and timelines.
func (st DegradationStage) String() string {
	switch st {
	case StageNormal:
		return "normal"
	case StageCodecDowngrade:
		return "codec-downgrade"
	case StagePassthroughOnly:
		return "passthrough-only"
	case StageUpstreamThrottle:
		return "upstream-throttle"
	case StageBlock:
		return "block"
	default:
		return "unknown"
	}
}

// DegradationConfig tunes the ladder controller; zero fields take the
// defaults. A server runs the ladder only when Config.Degradation is
// non-nil — without it there is no per-tick evaluation, no header and
// no extra RNG draw, so existing goldens stay bit-identical.
type DegradationConfig struct {
	// Enter[i] is the pressure at or above which the ladder escalates
	// from stage i to stage i+1 (after escalateTicks consecutive
	// ticks); it relaxes back below Enter[i] − exitBand (after
	// relaxTicks). Defaults: 0.70, 0.78, 0.86, 0.94.
	Enter [4]float64
	// ThrottleWindow is the backoff window in seconds advertised via
	// Retry-After/X-Overload-Window while at StageUpstreamThrottle or
	// above (default 10).
	ThrottleWindow int
}

// The ladder's fixed tuning.
const (
	// exitBand is the hysteresis band under each Enter threshold that
	// stops the ladder flapping.
	exitBand = 0.10
	// escalateTicks / relaxTicks are the consecutive-tick debounce on
	// each direction: escalation reacts fast, relaxation waits out
	// transients.
	escalateTicks = 2
	relaxTicks    = 5
	// mosFloor is the measured-MOS level below which call quality
	// contributes pressure: the top of G.107's "some users
	// dissatisfied" band.
	mosFloor = 3.5
	// dropRef is the relay drop rate that saturates the drop-pressure
	// term at 1.0.
	dropRef = 0.25
)

// withDefaults fills the zero fields.
func (c DegradationConfig) withDefaults() DegradationConfig {
	if c.Enter == [4]float64{} {
		c.Enter = [4]float64{0.70, 0.78, 0.86, 0.94}
	}
	if c.ThrottleWindow <= 0 {
		c.ThrottleWindow = 10
	}
	return c
}

// DegradationSignals is one tick's sensor snapshot, produced by the
// server's per-second sampler from the PR 8 measurement plane.
type DegradationSignals struct {
	// CPU is the CPU model's utilization percentage at this tick; 0 on
	// a server with no model.
	CPU float64
	// DropRate is the fraction of relayed RTP packets the overload
	// model dropped since the previous tick (0..1).
	DropRate float64
	// MOS is the mean measured E-model MOS of the calls that tore down
	// since the previous tick; 0 means no scored teardowns this tick.
	MOS float64
}

// DegradationTransition is one ladder step, recorded for the golden
// timeline: transitions are a pure function of the deterministic
// signal sequence, so they must be bit-identical across shard counts.
type DegradationTransition struct {
	At       time.Duration
	From, To DegradationStage
	Pressure float64
}

// DegradationController is the hysteresis state machine walking the
// ladder. It is a pure deterministic function of the Evaluate call
// sequence — no clock access, no randomness — and is driven under the
// server lock from the per-second sampler tick.
type DegradationController struct {
	cfg      DegradationConfig
	stage    DegradationStage
	hot      int // consecutive ticks at/above the next rung's Enter
	cool     int // consecutive ticks below the current rung's exit threshold
	timeline []DegradationTransition
}

// NewDegradationController builds a controller at StageNormal.
func NewDegradationController(cfg DegradationConfig) *DegradationController {
	return &DegradationController{cfg: cfg.withDefaults()}
}

// Config returns the controller's effective (defaulted) tuning.
func (d *DegradationController) Config() DegradationConfig { return d.cfg }

// Pressure collapses one tick's signals into the scalar the thresholds
// compare against: the worst of normalized CPU, normalized relay drop
// rate, and the measured-MOS deficit below the floor. Taking the max
// means any single saturated dimension drives the ladder — a host can
// be quality-degraded long before its CPU pegs.
func (d *DegradationController) Pressure(sig DegradationSignals) float64 {
	p := sig.CPU / 100
	if dp := sig.DropRate / dropRef; dp > p {
		p = dp
	}
	if sig.MOS > 0 && sig.MOS < mosFloor {
		// Scale the deficit so MOS 1.0 (the E-model floor) is full
		// pressure.
		if mp := (mosFloor - sig.MOS) / (mosFloor - 1.0); mp > p {
			p = mp
		}
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Evaluate feeds one tick of signals and returns the (possibly new)
// stage. The ladder moves at most one rung per tick, in either
// direction, and only after the debounce: escalateTicks consecutive
// ticks at or above the next Enter threshold to climb, relaxTicks
// consecutive ticks below the current rung's Enter − exitBand to
// descend. Between the two thresholds — the hysteresis band — both
// counters reset and the stage holds.
func (d *DegradationController) Evaluate(now time.Duration, sig DegradationSignals) DegradationStage {
	p := d.Pressure(sig)
	switch {
	case d.stage < StageBlock && p >= d.cfg.Enter[d.stage]:
		d.cool = 0
		d.hot++
		if d.hot >= escalateTicks {
			d.step(now, d.stage+1, p)
			d.hot = 0
		}
	case d.stage > StageNormal && p < d.cfg.Enter[d.stage-1]-exitBand:
		d.hot = 0
		d.cool++
		if d.cool >= relaxTicks {
			d.step(now, d.stage-1, p)
			d.cool = 0
		}
	default:
		d.hot, d.cool = 0, 0
	}
	return d.stage
}

func (d *DegradationController) step(now time.Duration, to DegradationStage, pressure float64) {
	d.timeline = append(d.timeline, DegradationTransition{
		At: now, From: d.stage, To: to, Pressure: pressure,
	})
	d.stage = to
}

// Stage returns the current rung.
func (d *DegradationController) Stage() DegradationStage { return d.stage }

// Timeline returns a copy of every transition taken so far.
func (d *DegradationController) Timeline() []DegradationTransition {
	return append([]DegradationTransition(nil), d.timeline...)
}
