// Package core is the paper's primary contribution in executable form:
// the capacity-evaluation methodology of Sec. III. It composes the
// substrates — the discrete-event network, the Asterisk-style PBX, the
// SIPp-style generator, the Table I counts read off their books, the
// CPU model and the E-model — into the four-step empirical method of
// Fig. 5, and pairs it with the Erlang-B analytical model so the two
// can be compared (Fig. 6).
//
// One call to Run is one cell of Table I; RunReplications fans
// independent seeds across a worker pool for confidence intervals,
// which is where the evaluation earns its parallel-computing keep.
package core

import (
	"fmt"
	"time"

	"repro/internal/directory"
	"repro/internal/erlang"
	"repro/internal/media"
	"repro/internal/monitor"
	"repro/internal/mos"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ExperimentConfig describes one empirical run.
type ExperimentConfig struct {
	// Workload is the offered traffic A in Erlangs; the arrival rate
	// is derived as λ = A/h (Sec. III-C).
	Workload erlang.Erlangs
	// Hold is the call duration h (paper: 120 s).
	Hold time.Duration
	// Window is the call placement window (paper: 180 s).
	Window time.Duration
	// Warmup excludes calls placed in the first Warmup of the window
	// from the measured aggregates, yielding steady-state figures that
	// Erlang-B predicts. Zero reproduces the paper's transient-included
	// measurement.
	Warmup time.Duration
	// Capacity is the PBX channel cap (paper's host: ≈165). Zero
	// means unlimited.
	Capacity int
	// Admission is the PBX's admission row over the Capacity pool; the
	// zero value is the hard cap, CPUPercent the CPU-threshold ablation.
	Admission pbx.Admission
	// Media selects packetized RTP or signalling-only with flow-model
	// quality.
	Media sipp.MediaMode
	// Arrivals and HoldDist select the stochastic shape
	// (default Poisson + fixed hold, like the paper).
	Arrivals sipp.ArrivalProcess
	HoldDist sipp.HoldDistribution
	// LinkDelay/LinkJitter/LinkLoss shape every host↔PBX link, the
	// switch of Fig. 4. Defaults: 1 ms, 0, 0.
	LinkDelay  time.Duration
	LinkJitter time.Duration
	LinkLoss   float64
	// CodecMix draws each caller's offered codec preference list from
	// weighted shares. Empty reproduces the paper's G.711-only
	// workload bit-for-bit.
	CodecMix []sipp.CodecShare
	// PBXCodecs is the PBX's supported payload-type list (empty:
	// G.711 µ/A only, no transcoding).
	PBXCodecs []int
	// CalleeCodecs is the answering bank's supported list (empty:
	// G.711 µ/A).
	CalleeCodecs []int
	// SLO overrides the service-level rules the per-second series is
	// judged against; nil applies monitor.DefaultSLORules().
	SLO *monitor.SLORules
	// Seed drives all randomness in the run.
	Seed uint64
	// Shards, when > 1, partitions the simulated fabric across that
	// many schedulers running on dedicated goroutines, synchronized
	// with conservative lookahead on the minimum cross-shard link
	// delay. The event order — and therefore every result field — is
	// the same at every shard count. 0 or 1 is a group of one, run on
	// the calling goroutine.
	Shards int
	// Islands, when > 1, replicates the whole workload that many times
	// in one simulation: island 0 keeps the canonical host names and
	// seeds and is the one the result reports; the replicas only add
	// events. Each island is placed whole on one shard (no cross-shard
	// traffic), which with Shards > 1 is the near-linear-scaling
	// configuration the engine benchmarks use.
	Islands int
}

// withDefaults fills the paper's parameter values.
func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.Hold == 0 {
		c.Hold = 120 * time.Second
	}
	if c.Window == 0 {
		c.Window = 180 * time.Second
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = time.Millisecond
	}
	return c
}

// ArrivalRate returns λ = A/h for the configured workload.
func (c ExperimentConfig) ArrivalRate() float64 {
	cc := c.withDefaults()
	return erlang.ArrivalRate(cc.Workload, cc.Hold.Seconds())
}

// ExperimentResult is one Table I column plus run metadata.
type ExperimentResult struct {
	Config ExperimentConfig

	// Load reports the generator's view.
	Load sipp.Results
	// Server reports the PBX's counters.
	Server pbx.Counters
	// Capture is Table I's rows for island 0, read off its senders'
	// books (monitor.Table): the PBX's and the two phones' SIP
	// datagrams, the media legs' and the relay's RTP packets.
	Capture monitor.TableRow
	// CPU band (lo, mean, hi) as sampled once per second.
	CPULo, CPUMean, CPUHi float64
	// MOS summarizes per-call scores: CDR-based (the VoIPmonitor
	// position) in packetized mode, flow-model in signalling mode.
	// Completed calls only, as the paper notes.
	MOS stats.Summary
	// ChannelsUsed is the peak concurrent call count (the paper's
	// "Number of Channels (N)" row).
	ChannelsUsed int
	// Events and Elapsed record simulation effort.
	Events  uint64
	Elapsed time.Duration
	// Telemetry is the end-of-run registry snapshot: every metric
	// family the run registered (PBX, SIP, relay, media, scheduler).
	Telemetry telemetry.Snapshot
	// Series is the per-second sampler series (offered load, active
	// calls, blocking, goodput, setup-latency quantiles).
	Series []monitor.Sample
	// SLOBreaches is the rule-violation timeline the SLO evaluator
	// produced over Series (empty when every tick met the rules).
	SLOBreaches []monitor.Breach
	// CDRs is the server's call-detail-record stream in close order,
	// the ledger the determinism-differential harness compares between
	// engine modes.
	CDRs []pbx.CDR
}

// BlockingProbability returns the measured Pb.
func (r ExperimentResult) BlockingProbability() float64 {
	return r.Load.BlockingProbability
}

// AnalyticalBlocking returns Erlang-B for the run's workload on n
// channels, for empirical-vs-model comparison (Fig. 6).
func (r ExperimentResult) AnalyticalBlocking(n int) float64 {
	return erlang.B(r.Config.Workload, n)
}

// islandSalt decorrelates the replica workloads' seeds. Island 0 uses
// salt 0, keeping the canonical seeds.
func islandSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// islandHosts returns the host names of one workload replica. Island 0
// keeps the canonical names, so its traffic, telemetry and Table I are
// byte-identical to a single-island run.
func islandHosts(i int) (pbxHost, callerHost, calleeHost string) {
	if i == 0 {
		return "pbx", "sippc", "sipps"
	}
	return fmt.Sprintf("pbx%d", i), fmt.Sprintf("sippc%d", i), fmt.Sprintf("sipps%d", i)
}

// Run executes one experiment to completion and returns its results.
// Every observable field is bit-identical at any shard count for the
// same config and seed (the difftest package pins this); only Elapsed
// differs.
func Run(cfg ExperimentConfig) ExperimentResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	nIslands := cfg.Islands
	if nIslands < 1 {
		nIslands = 1
	}

	// Placement: a lone island splits into {generator pair} and {pbx}
	// so the signalling and media paths actually cross shards; replica
	// islands are placed whole (they never talk to each other, which
	// unbounds the lookahead and is what makes them scale).
	var groups [][]string
	for i := 0; i < nIslands; i++ {
		p, c, s := islandHosts(i)
		if nIslands > 1 {
			groups = append(groups, []string{p, c, s})
		} else {
			groups = append(groups, []string{c, s}, []string{p})
		}
	}
	r := rig.NewSim(cfg.Shards, cfg.Seed, groups, stats.NewRNG(cfg.Seed).Split(), netsim.LinkProfile{
		Delay:  cfg.LinkDelay,
		Jitter: cfg.LinkJitter,
		Loss:   cfg.LinkLoss,
	})

	if nIslands > 1 {
		r.Net.SetIsolatedShards()
	}

	var server0 *pbx.Server
	var gen0 *sipp.Generator
	results := make([]*sipp.Results, nIslands)
	var sampler *monitor.Sampler
	var slo *monitor.SLO
	var series []monitor.Sample
	for i := 0; i < nIslands; i++ {
		i := i
		pbxHost, callerHost, calleeHost := islandHosts(i)
		// Only island 0 is observed: one registry shared by every
		// subsystem, next to the scheduler's pull-style families.
		var reg *telemetry.Registry
		if i == 0 {
			reg = r.Reg
		}

		// The PBX host and its directory.
		dir := directory.New()
		if err := rig.AddUsers(dir, "uac", "uas"); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		server := r.PBX(pbxHost, dir, pbx.Config{
			MaxChannels: cfg.Capacity,
			Admission:   cfg.Admission,
			RelayRTP:    cfg.Media == sipp.MediaPacketized,
			Codecs:      cfg.PBXCodecs,
			Seed:        cfg.Seed ^ 0x9bd1 ^ islandSalt(i),
			Telemetry:   reg,
		})

		// The SIPp pair (Fig. 4: generator client and server machines).
		gen := r.Generator(callerHost, calleeHost, pbxHost+":5060", sipp.Config{
			Rate:         cfg.ArrivalRate(),
			Window:       cfg.Window,
			Warmup:       cfg.Warmup,
			Hold:         cfg.Hold,
			Arrivals:     cfg.Arrivals,
			HoldDist:     cfg.HoldDist,
			Media:        cfg.Media,
			CodecMix:     cfg.CodecMix,
			CalleeCodecs: cfg.CalleeCodecs,
			Target:       "uas",
			Seed:         cfg.Seed ^ 0x51bb01 ^ islandSalt(i),
			Telemetry:    reg,
		})

		if i == 0 {
			server0, gen0 = server, gen
			// Per-second time series, ticking as an event on the PBX's
			// shard (whole-second window splits make each tick's
			// cross-shard counter reads deterministic). The SLO evaluator
			// rides the sampler's tick hook, judging each finished second.
			sampler = monitor.NewSampler(reg, r.Clock(pbxHost))
			rules := monitor.DefaultSLORules()
			if cfg.SLO != nil {
				rules = *cfg.SLO
			}
			slo = monitor.NewSLO(reg, rules)
			sampler.SetObserver(func(s monitor.Sample) {
				series = append(series, s)
				slo.Observe(s)
			})
			sampler.Start()
		}

		gen.Start(func(res sipp.Results, err error) {
			if err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
			results[i] = &res
			// Stop the sampler with the traffic, so the drain tail does
			// not pad the series, and freeze the CPU meter so the
			// reported band spans the loaded interval.
			r.Decide(callerHost, func(at time.Duration) {
				if i == 0 {
					sampler.StopAt(at)
				}
				server.Close()
			})
		})
	}

	// Horizon: registration + window + the longest possible call tail
	// plus transaction timeouts. Exponential hold times can exceed the
	// 10·h allowance; RunUntil extends until every generator completes.
	allDone := func() bool {
		for _, res := range results {
			if res == nil {
				return false
			}
		}
		return true
	}
	if err := r.RunUntil(allDone, cfg.Window+10*cfg.Hold+5*time.Minute); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}

	res := ExperimentResult{
		Config:       cfg,
		Load:         *results[0],
		Server:       server0.CountersSnapshot(),
		ChannelsUsed: server0.CountersSnapshot().PeakChannels,
		Events:       r.Group.Fired(),
		Elapsed:      time.Since(start),
		CDRs:         server0.Journal().Committed(),
	}
	caller, callee := gen0.SignalingStats()
	res.Capture = monitor.Table(gen0.Results().RTPSent+res.Server.RelayedPackets,
		server0.SignalingStats(), caller, callee)
	res.CPULo, res.CPUMean, res.CPUHi = server0.CPUBand()
	res.MOS = collectMOS(res)
	res.Telemetry = r.Reg.Snapshot()
	res.Series = series
	res.SLOBreaches = slo.Breaches()
	return res
}

// collectMOS gathers per-call MOS. Packetized mode uses CDRs — the
// VoIPmonitor position on the server; signalling-only mode evaluates
// the flow model per completed call with the path the run configured
// plus the CPU model's overload drop rate.
func collectMOS(res ExperimentResult) stats.Summary {
	cfg := res.Config
	var s stats.Summary
	if cfg.Media == sipp.MediaPacketized {
		for _, cdr := range res.CDRs {
			if cdr.Disposition == pbx.Answered && cdr.MOS > 0 {
				s.Add(cdr.MOS)
			}
		}
		return s
	}
	drop := serverDropAt(res.CPUMean)
	for _, rec := range res.Load.Records {
		if !rec.Established {
			continue
		}
		rep := media.Flow(media.FlowParams{
			Duration:   rec.Duration,
			PathLoss:   1 - (1-cfg.LinkLoss)*(1-drop)*(1-cfg.LinkLoss),
			PathDelay:  2 * cfg.LinkDelay,
			PathJitter: 2 * cfg.LinkJitter,
			Codec:      mos.G711PLC, // the PBX's CDR profile
		}, nil)
		s.Add(rep.MOS)
	}
	return s
}
