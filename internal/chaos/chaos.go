// Package chaos is a deterministic fault-injection harness for the
// PBX: it composes netsim link impairments (loss, jitter, rate limits,
// duplication, reordering) and control-plane faults (network
// partitions) into named scenarios, drives full SIPp→PBX→SIPp call
// flows through them on the virtual clock (on a rig.Sim), and checks
// the invariants that must survive any fault (rig.Invariants) — nothing
// leaked, the CDR journal balanced, every attempt ending in one outcome.
//
// Everything runs on the discrete-event scheduler with seeded RNGs:
// a scenario is a pure function of its seed, so every run is
// bit-reproducible and every failure is replayable. This is the
// harness the overload-control layer (pbx.Admission +
// client-side Retry-After backoff) is proven with.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Host names of the fixed three-node topology (Fig. 1 of the paper:
// client bank, PBX, server bank).
const (
	ClientHost = "sippc"
	PBXHost    = "pbx"
	ServerHost = "sipps"
)

// Partition blackholes the PBX signalling port for a window of virtual
// time: packets addressed to it fall on the floor (counted as
// no-route), exactly what a switch failure between the testbed hosts
// looks like. Media relay ports stay bound — it is a signalling-plane
// partition.
type Partition struct {
	Start    time.Duration
	Duration time.Duration
}

// Fault bundles the injected impairments of one scenario.
type Fault struct {
	// ClientLink impairs both directions between the caller bank and
	// the PBX; ServerLink likewise for PBX↔callee bank. A zero profile
	// leaves the default clean 1 ms link in place.
	ClientLink netsim.LinkProfile
	ServerLink netsim.LinkProfile
	// Partitions blackhole the PBX signalling port.
	Partitions []Partition
}

// Scenario is one named chaos experiment.
type Scenario struct {
	Name string
	Desc string
	// Seed makes the run reproducible; it feeds the network, PBX and
	// generator RNGs (with distinct salts).
	Seed uint64
	// Fault is what breaks.
	Fault Fault
	// PBX configures the server under test (admission policy, CPU
	// model, channel pool).
	PBX pbx.Config
	// Load is the offered traffic.
	Load sipp.Config
	// Shards, when > 1, runs the scenario on the partitioned engine
	// (generator bank and PBX on separate schedulers); results are
	// bit-identical to the one-shard run. Faulted links whose
	// jitter reaches their delay leave no guaranteed cross-shard
	// lookahead, so those scenarios collapse to a single host group.
	Shards int
}

// placementGroups returns the host groups a scenario may split across
// shards. Impaired links with no guaranteed minimum delay (jitter ≥
// delay) cannot cross a shard boundary, so such topologies keep every
// host in one group.
func (sc Scenario) placementGroups() [][]string {
	zero := netsim.LinkProfile{}
	if (sc.Fault.ClientLink != zero && sc.Fault.ClientLink.Lookahead() <= 0) ||
		(sc.Fault.ServerLink != zero && sc.Fault.ServerLink.Lookahead() <= 0) {
		return [][]string{{ClientHost, PBXHost, ServerHost}}
	}
	return [][]string{{ClientHost, ServerHost}, {PBXHost}}
}

// Result is everything a run observed.
type Result struct {
	Scenario string
	// Load is the generator's per-call view.
	Load sipp.Results
	// Books is the server's view after the drain: counters, leak
	// detectors, and the journal whose Committed records are the run's
	// CDRs.
	rig.Books
	// Signaling holds the server endpoint's wire counters
	// (retransmissions, timeouts, parse errors).
	Signaling sip.Stats
	// Capture is the Table-I style wire totals.
	Capture *monitor.Capture
	// Links maps "src->dst" to that direction's link counters.
	Links map[string]netsim.LinkStats
	// NoRoute counts packets that hit an unbound port (partitions).
	NoRoute uint64
	// PoolGets/PoolPuts are the packet pool's lifetime counters summed
	// over shards; a run that completes its drain with gets != puts has
	// leaked packet buffers across a shard boundary (ownership bug).
	PoolGets, PoolPuts uint64
	// CPU band (lo, mean, hi) over the busy plateau.
	CPULo, CPUMean, CPUHi float64
	// Degradation is the ladder's transition timeline (empty when the
	// scenario runs without Config.Degradation).
	Degradation []pbx.DegradationTransition
	// Telemetry is the end-of-run metrics snapshot; Series the
	// per-second sampler rows over the loaded interval.
	Telemetry telemetry.Snapshot
	Series    []monitor.Sample
}

// provision gives the generator's caller and its target (default
// "uas") their accounts.
func provision(dir *directory.Directory, target string) error {
	if target == "" {
		target = "uas"
	}
	if err := rig.AddUsers(dir, "uac", target); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// Run executes one scenario to completion and returns the observation.
func Run(sc Scenario) (*Result, error) {
	r := rig.NewSim(sc.Shards, sc.Seed, sc.placementGroups(), stats.NewRNG(sc.Seed^0xc4a05),
		netsim.LinkProfile{Delay: time.Millisecond})
	net := r.Net
	if sc.Fault.ClientLink != (netsim.LinkProfile{}) {
		net.SetDuplexLink(ClientHost, PBXHost, sc.Fault.ClientLink)
	}
	if sc.Fault.ServerLink != (netsim.LinkProfile{}) {
		net.SetDuplexLink(PBXHost, ServerHost, sc.Fault.ServerLink)
	}
	capture := rig.PerShard(r, monitor.NewCapture, nil)

	dir := directory.New()
	if err := provision(dir, sc.Load.Target); err != nil {
		return nil, err
	}

	pbxCfg := sc.PBX
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	if sc.Load.Media == sipp.MediaPacketized {
		pbxCfg.RelayRTP = true
	}
	pbxCfg.Telemetry = r.Reg
	server := r.PBX(PBXHost, dir, pbxCfg)

	loadCfg := sc.Load
	if loadCfg.Seed == 0 {
		loadCfg.Seed = sc.Seed ^ 0x51
	}
	loadCfg.Telemetry = r.Reg
	gen := r.Generator(ClientHost, ServerHost, server.Addr(), loadCfg)

	// Partitions: save the signalling binding, drop it for the window,
	// restore it afterwards. Times are absolute virtual time.
	pbxSched := net.SchedulerFor(PBXHost)
	sigAddr := netsim.Addr{Host: PBXHost, Port: 5060}
	for _, p := range sc.Fault.Partitions {
		p := p
		pbxSched.At(p.Start, func(time.Duration) {
			saved := net.Handler(sigAddr)
			if saved == nil {
				return
			}
			net.Unbind(sigAddr)
			pbxSched.At(p.Start+p.Duration, func(time.Duration) {
				net.Bind(sigAddr, saved)
			})
		})
	}

	var series []monitor.Sample
	sampler := monitor.NewSampler(r.Reg, r.Clock(PBXHost))
	sampler.SetObserver(func(s monitor.Sample) { series = append(series, s) })
	sampler.Start()

	load, err := r.RunLoad(gen, func() { r.Decide(ClientHost, sampler.StopAt) })
	if err != nil {
		return nil, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
	}
	if err := r.Drain(); err != nil {
		return nil, err
	}
	server.Close()

	res := &Result{
		Scenario:    sc.Name,
		Load:        load,
		Books:       rig.Audit("", server),
		Signaling:   server.SignalingStats(),
		Capture:     capture(),
		NoRoute:     net.NoRoute(),
		Degradation: server.DegradationTimeline(),
		Telemetry:   r.Reg.Snapshot(),
		Series:      series,
		Links:       map[string]netsim.LinkStats{},
	}
	res.PoolGets, res.PoolPuts = net.PoolStats()
	res.CPULo, res.CPUMean, res.CPUHi = server.CPUBand()
	for _, pair := range [][2]string{
		{ClientHost, PBXHost}, {PBXHost, ClientHost},
		{PBXHost, ServerHost}, {ServerHost, PBXHost},
	} {
		res.Links[pair[0]+"->"+pair[1]] = net.LinkStats(pair[0], pair[1])
	}
	return res, nil
}

// Goodput counts the calls that actually delivered service: established
// and, when minMOS > 0, scored at or above that floor — the
// quality-weighted goodput of the overload-control literature (a call
// carried on a saturated host with unusable audio is not goodput).
func (r *Result) Goodput(minMOS float64) int {
	n := 0
	for _, rec := range r.Load.Records {
		if !rec.Established {
			continue
		}
		if minMOS > 0 && rec.MOS < minMOS {
			continue
		}
		n++
	}
	return n
}

// CheckInvariants returns the violated invariants (empty = healthy):
// rig.Invariants over the one server's books.
func (r *Result) CheckInvariants() []string {
	return rig.Invariants(r.PoolGets, r.PoolPuts, r.Load, r.Books)
}
