// Package chaos is a deterministic fault-injection harness for the
// PBX: it composes netsim link impairments (loss, jitter, rate limits,
// duplication, reordering) and control-plane faults (network
// partitions) into named scenarios, drives full SIPp→PBX→SIPp call
// flows through them on the virtual clock, and checks the invariants
// that must survive any fault — no leaked channels, balanced CDRs,
// conserved call accounting.
//
// Everything runs on the discrete-event scheduler with seeded RNGs:
// a scenario is a pure function of its seed, so every run is
// bit-reproducible and every failure is replayable. This is the
// harness the overload-control layer (pbx.AdmissionPolicy +
// client-side Retry-After backoff) is proven with.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
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
	// bit-identical to the single-scheduler run. Faulted links whose
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
	// Counters/CDRs are the server's view.
	Counters pbx.Counters
	CDRs     []pbx.CDR
	// Signaling holds the server endpoint's wire counters
	// (retransmissions, timeouts, parse errors).
	Signaling sip.Stats
	// Timeline is the per-second wire activity; Capture the Table-I
	// style totals.
	Timeline *monitor.Timeline
	Capture  *monitor.Capture
	// Links maps "src->dst" to that direction's link counters.
	Links map[string]netsim.LinkStats
	// NoRoute counts packets that hit an unbound port (partitions).
	NoRoute uint64
	// PoolGets/PoolPuts are the packet pool's lifetime counters summed
	// over shards; a run that completes its drain with gets != puts has
	// leaked packet buffers across a shard boundary (ownership bug).
	PoolGets, PoolPuts uint64
	// Leak detectors, read after the post-run drain.
	ActiveChannels     int
	ActiveTransactions int
	// UnackedInvites is the size of the endpoint's 2xx-ACK index; its
	// entries are server transactions, so it drains with them.
	UnackedInvites int
	// ActiveSpans counts call trace spans still open after the drain —
	// a span leak means some INVITE path never reached traceEnd.
	ActiveSpans int
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

// drainTail is how long the harness keeps the clock running after the
// last call ends: past the 32 s transaction timeout and the 5 s
// completed-transaction linger, so any leaked transaction is a real
// leak and not a timer still draining.
const drainTail = 40 * time.Second

// Run executes one scenario to completion and returns the observation.
func Run(sc Scenario) (*Result, error) {
	k := sc.Shards
	if k < 1 {
		k = 1
	}
	group := netsim.NewShardGroup(k)
	hostShard := netsim.AssignShards(sc.Seed, sc.placementGroups(), k)
	net := netsim.NewShardedNetwork(group, stats.NewRNG(sc.Seed^0xc4a05), hostShard)
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	if sc.Fault.ClientLink != (netsim.LinkProfile{}) {
		net.SetDuplexLink(ClientHost, PBXHost, sc.Fault.ClientLink)
	}
	if sc.Fault.ServerLink != (netsim.LinkProfile{}) {
		net.SetDuplexLink(PBXHost, ServerHost, sc.Fault.ServerLink)
	}

	// Wire observation: one capture/timeline per shard (each packet is
	// tapped exactly once, on its sender's shard), merged after the run.
	captures := make([]*monitor.Capture, k)
	timelines := make([]*monitor.Timeline, k)
	for s := 0; s < k; s++ {
		captures[s] = monitor.NewCapture()
		timelines[s] = monitor.NewTimeline()
		net.AddShardTap(s, captures[s].Tap())
		net.AddShardTap(s, timelines[s].Tap())
	}
	capture, timeline := captures[0], timelines[0]

	pbxSched := net.SchedulerFor(PBXHost)
	clock := transport.SimClock{Sched: pbxSched}

	// Observation plane, same shape as a core experiment: one shared
	// registry, scheduler pull-metrics, and a per-second sampler.
	reg := telemetry.NewRegistry()
	monitor.RegisterScheduler(reg, group)
	dir := directory.New()
	dir.AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	target := sc.Load.Target
	if target == "" {
		target = "uas"
	}
	dir.AddUser(directory.User{Username: target, Password: "pw-" + target})

	pbxCfg := sc.PBX
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	if sc.Load.Media == sipp.MediaPacketized {
		pbxCfg.RelayRTP = true
	}
	pbxCfg.Telemetry = reg
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("%s:%d", PBXHost, port)), nil
	}
	pbxAddr := PBXHost + ":5060"
	pbxEP := sip.NewEndpoint(transport.NewSim(net, pbxAddr), clock)
	pbxEP.UseTelemetry(reg)
	server := pbx.New(pbxEP, dir, factory, pbxCfg)

	loadCfg := sc.Load
	if loadCfg.Seed == 0 {
		loadCfg.Seed = sc.Seed ^ 0x51
	}
	loadCfg.Telemetry = reg
	gen := sipp.New(net, ClientHost, ServerHost, pbxAddr, loadCfg)

	// Partitions: save the signalling binding, drop it for the window,
	// restore it afterwards. Times are absolute virtual time.
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

	sampler := monitor.NewSampler(reg, clock)
	sampler.Start()

	genSched := net.SchedulerFor(ClientHost)
	genShard := net.ShardOf(ClientHost)
	var out sipp.Results
	done := false
	gen.Start(func(r sipp.Results) {
		out = r
		done = true
		// The sampler lives on the PBX shard; stopping it from the
		// generator's completion event is staged as a barrier control,
		// stamped with the decision time (see Sampler.StopAt).
		doneAt := genSched.Now()
		group.Control(genShard, func() { sampler.StopAt(doneAt) })
	})
	for i := 0; i < 200 && !done; i++ {
		if err := group.Run(group.Now() + 10*time.Minute); err != nil {
			return nil, err
		}
	}
	if !done {
		return nil, fmt.Errorf("chaos: scenario %q did not finish", sc.Name)
	}
	// Let retransmission timers, lingering transactions and in-flight
	// packets drain so the leak checks below measure leaks, not timing.
	if err := group.Run(group.Now() + drainTail); err != nil {
		return nil, err
	}
	server.Close()
	for _, c := range captures[1:] {
		capture.Merge(c)
	}
	for _, tl := range timelines[1:] {
		timeline.Merge(tl)
	}

	lo, mean, hi := server.CPUBand()
	gets, puts := net.PoolStats()
	res := &Result{
		Scenario:           sc.Name,
		Load:               out,
		PoolGets:           gets,
		PoolPuts:           puts,
		Counters:           server.CountersSnapshot(),
		CDRs:               server.CDRs(),
		Signaling:          server.SignalingStats(),
		Timeline:           timeline,
		Capture:            capture,
		NoRoute:            net.NoRoute(),
		ActiveChannels:     server.ActiveChannels(),
		ActiveTransactions: server.ActiveTransactions(),
		UnackedInvites:     server.UnackedInvites(),
		ActiveSpans:        server.ActiveSpans(),
		CPULo:              lo,
		CPUMean:            mean,
		CPUHi:              hi,
		Degradation:        server.DegradationTimeline(),
		Telemetry:          reg.Snapshot(),
		Series:             sampler.Samples(),
		Links:              map[string]netsim.LinkStats{},
	}
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

// CheckInvariants returns the violated invariants (empty = healthy).
// These must hold for every scenario, however hostile:
//
//   - no channel leak: every admitted call released its channel;
//   - no transaction leak after the drain tail, and with it an empty
//     2xx-ACK index;
//   - no span leak: every traced INVITE reached a terminal outcome;
//   - CDRs balance the counters: completed CDRs == Completed,
//     established CDRs == Established;
//   - generator accounting conserves calls:
//     Attempts == Established + Blocked + Abandoned + Failed + Throttled;
//   - the packet pool balances: every packet taken from the pool went
//     back exactly once, whichever shard released it;
//   - no mid-call renegotiation: the degradation ladder only shapes
//     calls at admission, so the renegotiation sentinel must read zero.
func (r *Result) CheckInvariants() []string {
	var bad []string
	if r.PoolGets != r.PoolPuts {
		bad = append(bad, fmt.Sprintf("packet pool leak: %d gets vs %d puts", r.PoolGets, r.PoolPuts))
	}
	if r.ActiveChannels != 0 {
		bad = append(bad, fmt.Sprintf("channel leak: %d channels still held", r.ActiveChannels))
	}
	if r.ActiveTransactions != 0 {
		bad = append(bad, fmt.Sprintf("transaction leak: %d transactions alive after drain", r.ActiveTransactions))
	}
	if r.UnackedInvites != 0 {
		bad = append(bad, fmt.Sprintf("ACK index leak: %d un-ACKed INVITEs indexed after drain", r.UnackedInvites))
	}
	if r.ActiveSpans != 0 {
		bad = append(bad, fmt.Sprintf("span leak: %d call trace spans still open after drain", r.ActiveSpans))
	}
	completed, established := 0, 0
	for _, c := range r.CDRs {
		if c.Completed {
			completed++
		}
		if c.Established {
			established++
		}
	}
	if uint64(completed) != r.Counters.Completed {
		bad = append(bad, fmt.Sprintf("CDR imbalance: %d completed CDRs vs Completed=%d",
			completed, r.Counters.Completed))
	}
	if uint64(established) != r.Counters.Established {
		bad = append(bad, fmt.Sprintf("CDR imbalance: %d established CDRs vs Established=%d",
			established, r.Counters.Established))
	}
	l := r.Load
	if l.Attempts != l.Established+l.Blocked+l.Abandoned+l.Failed+l.Throttled {
		bad = append(bad, fmt.Sprintf("call accounting: %d attempts != %d+%d+%d+%d+%d",
			l.Attempts, l.Established, l.Blocked, l.Abandoned, l.Failed, l.Throttled))
	}
	if r.Counters.Renegotiations != 0 {
		bad = append(bad, fmt.Sprintf("mid-call renegotiation: sentinel=%d (must be 0)",
			r.Counters.Renegotiations))
	}
	return bad
}
