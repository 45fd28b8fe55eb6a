package chaos

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

// Overload scenario calibration. The pool is scaled down from the
// paper's 165 channels to keep event counts test-sized; the *shape*
// is what matters: a CPU knee just above the controller's shed point
// and well below the hard cap's operating point, so running at the
// cap drops RTP (bad MOS) while shedding early does not.
const (
	// OverloadChannels is the channel pool (the "measured capacity").
	OverloadChannels = 20
	// OverloadHold is the per-call hold time.
	OverloadHold = 15 * time.Second
	// OverloadRate is 1.5× the capacity's critical rate: the pool
	// sustains Channels/Hold ≈ 1.33 calls/s, so 2/s is a sustained
	// 1.5× overload.
	OverloadRate = 2.0
	// OverloadWindow is the placement window.
	OverloadWindow = 90 * time.Second
	// GoodMOS is the quality floor for goodput: ITU-T "satisfied user"
	// territory. Clean links (≈4% end-to-end loss) score ≈3.9–4.0;
	// a saturated relay (≈12% loss) scores ≈3.1.
	GoodMOS = 3.8
)

// overloadCPU is the chaos CPU model: a sharper per-call slope than
// the Table-I calibration so the knee sits between the controller's
// shed point (≈14 calls → ≈51%) and the hard cap (20 calls → ≈68%),
// with enough post-knee drop probability to wreck MOS at the cap.
func overloadCPU() cpu.Model {
	return cpu.Model{
		BasePercent:        5,
		PerCallPercent:     3.0,
		PerAttemptPercent:  1.0,
		PerErrorPercent:    1.0,
		OverloadKnee:       55,
		MaxDropProbability: 0.30,
	}
}

// lossy2pc is the acceptance-criteria link: 2% loss each way with a
// realistic 1 ms delay.
func lossy2pc() netsim.LinkProfile {
	return netsim.LinkProfile{Delay: time.Millisecond, Loss: 0.02}
}

// overloadLoad is the shared 1.5×-capacity offered load.
func overloadLoad() sipp.Config {
	return sipp.Config{
		Rate:     OverloadRate,
		Window:   OverloadWindow,
		Hold:     OverloadHold,
		Arrivals: sipp.ArrivalPoisson,
		Media:    sipp.MediaPacketized,
	}
}

// OverloadBaseline runs 1.5× capacity with 2% loss against the
// classical hard channel cap: every call up to the 20th is admitted
// onto an increasingly saturated host.
func OverloadBaseline(seed uint64) Scenario {
	return Scenario{
		Name: "overload-baseline",
		Desc: "1.5x capacity, 2% loss, hard channel cap (no controller)",
		Seed: seed,
		Fault: Fault{
			ClientLink: lossy2pc(),
			ServerLink: lossy2pc(),
		},
		PBX: pbx.Config{
			MaxChannels: OverloadChannels,
			CPU:         overloadCPU(),
		},
		Load: overloadLoad(),
	}
}

// OverloadControlled is the same offered load and faults with the
// occupancy controller shedding at 70% of the pool (503 + Retry-After)
// and clients honouring the hint with exponential backoff.
func OverloadControlled(seed uint64) Scenario {
	load := overloadLoad()
	load.RetryMax = 2
	load.RetryBase = 500 * time.Millisecond
	return Scenario{
		Name: "overload-controlled",
		Desc: "1.5x capacity, 2% loss, occupancy controller + client backoff",
		Seed: seed,
		Fault: Fault{
			ClientLink: lossy2pc(),
			ServerLink: lossy2pc(),
		},
		PBX: pbx.Config{
			MaxChannels: OverloadChannels,
			CPU:         overloadCPU(),
			Admission:   pbx.Admission{ShedAt: 0.7},
		},
		Load: load,
	}
}

// DirtyLink exercises every datagram impairment at once — loss,
// jitter, duplication, reordering, and a rate-limited bottleneck —
// under moderate load. Calls must still complete and the books must
// still balance.
func DirtyLink(seed uint64) Scenario {
	dirty := netsim.LinkProfile{
		Delay:        2 * time.Millisecond,
		Jitter:       5 * time.Millisecond,
		Loss:         0.02,
		DupProb:      0.05,
		ReorderProb:  0.05,
		ReorderDelay: 10 * time.Millisecond,
		RateBps:      10e6, // the paper's 10 Mb/s switch tier
	}
	return Scenario{
		Name:  "dirty-link",
		Desc:  "2% loss + 5ms jitter + 5% dup + 5% reorder + 10 Mb/s bottleneck",
		Seed:  seed,
		Fault: Fault{ClientLink: dirty, ServerLink: dirty},
		PBX: pbx.Config{
			MaxChannels: 10,
		},
		Load: sipp.Config{
			Rate:     1,
			Window:   30 * time.Second,
			Hold:     5 * time.Second,
			Arrivals: sipp.ArrivalPoisson,
			Media:    sipp.MediaPacketized,
		},
	}
}

// SignalingPartition blackholes the PBX signalling port mid-window for
// 5 s — well inside the 32 s transaction timeout, so retransmission
// timers must carry every in-flight setup and teardown across the
// outage.
func SignalingPartition(seed uint64) Scenario {
	return Scenario{
		Name: "signaling-partition",
		Desc: "5s signalling blackout at t=20s; retransmissions must heal",
		Seed: seed,
		Fault: Fault{Ops: []Op{
			{At: 20 * time.Second, Kind: Partition, For: 5 * time.Second},
		}},
		PBX: pbx.Config{
			MaxChannels: 50,
		},
		Load: sipp.Config{
			Rate:     1,
			Window:   45 * time.Second,
			Hold:     5 * time.Second,
			Arrivals: sipp.ArrivalUniform,
			Media:    sipp.MediaNone,
		},
	}
}

// ErlangOperatingPoint replays the paper's A=200 operating point
// (λ = A/h with h = 120 s against the measured 165-channel capacity),
// signalling-only so the long window stays cheap. Measured blocking
// must track Erlang-B B(200,165) ≈ 19.4%.
func ErlangOperatingPoint(seed uint64) Scenario {
	return Scenario{
		Name: "erlang-operating-point",
		Desc: "A=200 vs N=165, signalling only; blocking tracks Erlang-B",
		Seed: seed,
		PBX: pbx.Config{
			MaxChannels: pbx.DefaultCapacity,
		},
		Load: sipp.Config{
			Rate:     200.0 / 120.0,
			Window:   600 * time.Second,
			Warmup:   240 * time.Second,
			Hold:     120 * time.Second,
			Arrivals: sipp.ArrivalPoisson,
			HoldDist: sipp.HoldExponential,
			Media:    sipp.MediaNone,
		},
	}
}

// Smoke is the cheap end-to-end sanity scenario `make verify` runs:
// light load, mild loss, the occupancy controller on, packetized
// media — every subsystem touched in a few hundred virtual seconds.
func Smoke(seed uint64) Scenario {
	load := sipp.Config{
		Rate:      1,
		Window:    20 * time.Second,
		Hold:      5 * time.Second,
		Arrivals:  sipp.ArrivalPoisson,
		Media:     sipp.MediaPacketized,
		RetryMax:  1,
		RetryBase: 250 * time.Millisecond,
	}
	return Scenario{
		Name:  "smoke",
		Desc:  "light load, 1% loss, occupancy controller; fast sanity pass",
		Seed:  seed,
		Fault: Fault{ClientLink: netsim.LinkProfile{Delay: time.Millisecond, Loss: 0.01}},
		PBX: pbx.Config{
			MaxChannels: 10,
			Admission:   pbx.Admission{ShedAt: 0.8},
		},
		Load: load,
	}
}

// PBXCrash is Smoke with the lone PBX killed at t = 12 s and
// restarted at t = 20 s: the calls in flight at the crash surface as
// LOST records, and INVITEs sent into the outage time out. The
// callee-side media watchdog is what ends the orphaned callee legs,
// which would otherwise keep streaming into the dead relay.
func PBXCrash(seed uint64) Scenario {
	sc := Smoke(seed)
	sc.Name = "pbx-crash"
	sc.Desc = "smoke load; the lone PBX crashes mid-window and restarts"
	sc.Load.MediaTimeout = 3 * time.Second
	sc.Fault.Ops = []Op{
		{At: 12 * time.Second, Kind: Crash},
		{At: 20 * time.Second, Kind: Restart},
	}
	return sc
}

// surgeDegradation is the ladder tuning the surge scenarios share.
// The overloadCPU model idles a loaded-but-stable host around 0.65–0.75
// utilization, so the thresholds sit below the defaults: the ladder
// walks to upstream-throttle during the surge plateau while the block
// rung stays reserved for pathology (0.97).
func surgeDegradation() *pbx.DegradationConfig {
	return &pbx.DegradationConfig{
		Enter:          [4]float64{0.60, 0.66, 0.72, 0.97},
		ThrottleWindow: 5,
	}
}

// surgeMix is the offered codec mix: mostly the paper's G.711 pair,
// with a G.729-only minority whose calls need a transcoding bridge —
// the traffic rung 2 (passthrough-only) refuses with 488.
func surgeMix() []sipp.CodecShare {
	return []sipp.CodecShare{
		{Name: "g711", Payloads: []int{0, 8}, Share: 0.8},
		{Name: "g729", Payloads: []int{18}, Share: 0.2},
	}
}

// DegradationSurge drives a sustained 1.5x-capacity surge with retry
// pressure into the graceful-degradation ladder: the controller should
// walk Normal → CodecDowngrade → PassthroughOnly → UpstreamThrottle as
// the plateau builds, push overload windows to the generator (calls
// shed client-side as Throttled), and relax back down the ladder as the
// window drains — all without ever renegotiating an established call.
func DegradationSurge(seed uint64) Scenario {
	load := overloadLoad()
	load.Window = 120 * time.Second
	load.RetryMax = 2
	load.RetryBase = 500 * time.Millisecond
	load.CodecMix = surgeMix()
	return Scenario{
		Name: "degradation-surge",
		Desc: "1.5x surge + retries vs the degradation ladder (codec downgrade, passthrough-only, upstream throttle)",
		Seed: seed,
		Fault: Fault{
			ClientLink: lossy2pc(),
			ServerLink: lossy2pc(),
		},
		PBX: pbx.Config{
			MaxChannels: OverloadChannels,
			CPU:         overloadCPU(),
			Degradation: surgeDegradation(),
		},
		Load: load,
	}
}

// FrontierScenario is the bench frontier's head-to-head operating
// point: the DegradationSurge offered load (1.5× capacity with retries,
// the 80/20 G.711/G.729 mix, 2% lossy links — the scaled equivalent of
// the paper's A≈245 Erlangs against its 165-channel host) against one
// named overload-control strategy: "static", "occupancy", "quality"
// or "ladder" (bench.FrontierStrategies). This switch is the one place
// a strategy name maps onto the PBX's admission row and ladder.
func FrontierScenario(strategy string, seed uint64) Scenario {
	sc := DegradationSurge(seed)
	sc.Name = "frontier-" + strategy
	sc.Desc = "strategy frontier point: " + strategy
	// Deepen the surge past the DegradationSurge calibration point —
	// 2.25× the CPU-sustainable load with a third retry — and, the
	// decisive twist, open the channel pool past what the host can
	// actually serve (frontierChannels ≈ CPU saturation). The paper's
	// capacity is CPU-bound, not trunk-bound: a static cap sized to
	// the trunk count admits a concurrency the CPU cannot carry, so
	// every admitted call rides a relay dropping hard past the knee.
	// Degrading early keeps concurrency near the knee instead.
	sc.Load.Rate = 3.0
	sc.Load.RetryMax = 3
	sc.PBX.CPU = frontierCPU()
	sc.PBX.MaxChannels = frontierChannels
	sc.PBX.Degradation = nil
	switch strategy {
	case "static":
		// The hard cap alone: admit to the pool, 503 the rest.
	case "occupancy":
		sc.PBX.Admission.ShedAt = 0.7
	case "quality":
		sc.PBX.Admission.MOSFloor = 3.5
	case "ladder":
		// The ladder layers over the occupancy controller's early
		// shed — "degrade before you block" is relative to the same
		// admission baseline — and adds the codec/passthrough rungs
		// plus the closed-loop upstream throttle.
		sc.PBX.Admission.ShedAt = 0.7
		sc.PBX.Degradation = frontierDegradation()
	default:
		panic("chaos: unknown frontier strategy " + strategy)
	}
	return sc
}

// frontierChannels is the frontier pool: sized past the CPU knee (30
// calls ≈ 95% util under overloadCPU) so admission is CPU-bound, like
// the paper's measured host, rather than trunk-bound.
const frontierChannels = 30

// frontierCPU is overloadCPU with an unforgiving post-knee slope:
// a host running at full saturation sheds half its RTP, the DSP-starved
// regime the paper's CPU ceiling protects against. Past-knee operation
// is survivable near the knee and fatal deep past it, which is the
// regime where degrading early pays.
func frontierCPU() cpu.Model {
	m := overloadCPU()
	m.MaxDropProbability = 0.50
	return m
}

// frontierDegradation retunes the ladder for the CPU-bound frontier
// host: the occupancy controller underneath already sheds at 70% of
// the pool, so the throttle rung sits higher (0.76) and its window
// shorter (3 s) — rung 3 fires in brief pulses that quench the retry
// storm without wholesale-shedding fresh arrivals the pool could
// still carry.
func frontierDegradation() *pbx.DegradationConfig {
	d := surgeDegradation()
	d.Enter[2] = 0.76
	d.ThrottleWindow = 3
	return d
}

// CrashFailover is the acceptance scenario: three 8-channel backends
// behind a least-busy balancer carry A = 20 E (B(20,24) ≈ 7%); at
// t = 20 s — peak load — backend 0 is killed, and restarted at
// t = 38 s. Health probes (1 s cadence, 1 s timeout, 3 strikes) must
// mark it down within the probe threshold; placement shifts to the
// two survivors (16 channels, B(20,16) ≈ 17% — the blocking spike);
// after restart the backend re-enters through probe + slow-start.
// Blackholed INVITEs fail over via timeout retry; every call
// interrupted by the crash must surface as exactly one LOST CDR.
func CrashFailover(seed uint64) Scenario {
	return Scenario{
		Name: "crash-failover",
		Desc: "crash 1 of 3 backends at peak, health-probe markdown, failover, restart with slow-start",
		Seed: seed,
		PBX:  pbx.Config{MaxChannels: 8},
		Farm: Farm{
			Servers: 3,
			Policy:  cluster.LeastBusy,
			Health: cluster.HealthConfig{
				ProbeInterval: time.Second,
				ProbeTimeout:  time.Second,
				FailThreshold: 3,
				SlowStart:     5 * time.Second,
			},
		},
		Load: sipp.Config{
			Rate:          2,
			Window:        60 * time.Second,
			Hold:          10 * time.Second,
			Arrivals:      sipp.ArrivalPoisson,
			HoldDist:      sipp.HoldExponential,
			RetryMax:      2,
			RetryBase:     500 * time.Millisecond,
			RetryTimeouts: true,
		},
		Fault: Fault{Ops: []Op{
			{At: 20 * time.Second, Kind: Crash, Backend: 0},
			{At: 38 * time.Second, Kind: Restart, Backend: 0},
		}},
	}
}

// CrashMedia exercises the crash path with packetized RTP through the
// relays: when backend 0 dies its relay ports go dark mid-call, the
// callee-side media watchdog detects the stalled stream and hangs up,
// and the restarted backend absorbs the stray BYEs.
func CrashMedia(seed uint64) Scenario {
	return Scenario{
		Name: "crash-media",
		Desc: "backend crash with live RTP relays; media watchdog reaps orphaned callee legs",
		Seed: seed,
		PBX:  pbx.Config{MaxChannels: 4},
		Farm: Farm{
			Servers: 3,
			Policy:  cluster.LeastBusy,
			Health: cluster.HealthConfig{
				ProbeInterval: 500 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				FailThreshold: 2,
				SlowStart:     2 * time.Second,
			},
		},
		Load: sipp.Config{
			Rate:          0.8,
			Window:        30 * time.Second,
			Hold:          6 * time.Second,
			Media:         sipp.MediaPacketized,
			MediaTimeout:  3 * time.Second,
			RetryMax:      1,
			RetryBase:     500 * time.Millisecond,
			RetryTimeouts: true,
		},
		Fault: Fault{Ops: []Op{
			{At: 12 * time.Second, Kind: Crash, Backend: 0},
			{At: 22 * time.Second, Kind: Restart, Backend: 0},
		}},
	}
}

// DrainRolling drains one backend of three under steady load: new
// placements shift to its peers while its established calls complete,
// the drain-duration histogram records the window, and the probe
// plane marks the draining server down (its OPTIONS answer 503).
func DrainRolling(seed uint64) Scenario {
	return Scenario{
		Name: "drain-rolling",
		Desc: "administrative drain of one backend under load; calls finish, placement shifts",
		Seed: seed,
		PBX:  pbx.Config{MaxChannels: 8},
		Farm: Farm{
			Servers: 3,
			Policy:  cluster.LeastBusy,
			Health: cluster.HealthConfig{
				ProbeInterval: time.Second,
				ProbeTimeout:  time.Second,
				FailThreshold: 2,
				SlowStart:     2 * time.Second,
			},
		},
		Load: sipp.Config{
			Rate:     1.5,
			Window:   45 * time.Second,
			Hold:     8 * time.Second,
			HoldDist: sipp.HoldExponential,
			RetryMax: 1,
		},
		Fault: Fault{Ops: []Op{
			{At: 15 * time.Second, Kind: Drain, Backend: 0},
		}},
	}
}

// RegisterStorm is the steady-state registration scenario: a
// population registering through the ramp and holding its bindings
// with jittered refreshes for the whole window.
func RegisterStorm(seed uint64) Scenario {
	return Scenario{
		Name:      "register-storm",
		Desc:      "steady-state registration load with jittered refreshes",
		Seed:      seed,
		DirShards: 4,
		Register: sipp.RegisterConfig{
			Endpoints: 2000,
			Prefix:    "u",
			Expires:   30 * time.Second,
			Ramp:      5 * time.Second,
			Window:    55 * time.Second,
		},
	}
}

// RegisterAvalanche is the cold-restart scenario: the registrar dies
// under a fully registered population, restarts with an empty nonce
// cache, and the whole population re-registers in a wave that the
// admission lane's rate cap + Retry-After spreading must drain
// without livelock.
func RegisterAvalanche(seed uint64) Scenario {
	return Scenario{
		Name:      "register-avalanche",
		Desc:      "cold-restart re-REGISTER avalanche through the rate-capped admission lane",
		Seed:      seed,
		DirShards: 4,
		PBX: pbx.Config{
			Registrar: pbx.RegistrarConfig{
				Enabled:            true,
				MaxRegistersPerSec: 2500,
			},
		},
		Register: sipp.RegisterConfig{
			Endpoints:      10000,
			Prefix:         "u",
			Expires:        10 * time.Minute,
			Ramp:           8 * time.Second,
			Window:         52 * time.Second,
			DisableRefresh: true,
		},
		Fault: Fault{Ops: []Op{
			{At: 15 * time.Second, Kind: Crash},
			{At: 18 * time.Second, Kind: Restart},
			{At: 20 * time.Second, Kind: Avalanche, For: 4 * time.Second},
		}},
		MaxDrain:   30 * time.Second,
		MaxPeak503: 6000,
	}
}

// Catalog lists every named scenario for documentation and tooling.
func Catalog(seed uint64) []Scenario {
	return []Scenario{
		Smoke(seed),
		PBXCrash(seed),
		OverloadBaseline(seed),
		OverloadControlled(seed),
		DirtyLink(seed),
		SignalingPartition(seed),
		ErlangOperatingPoint(seed),
		DegradationSurge(seed),
	}
}
