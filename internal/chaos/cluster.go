package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// OpKind is a process-level fault operation.
type OpKind int

// Process-level fault operations.
const (
	// CrashServer kills a backend at the scheduled tick: socket,
	// timers, transactions and in-flight calls vanish at once.
	CrashServer OpKind = iota
	// RestartServer re-binds a crashed backend's address, recovers its
	// CDR journal (interrupted records close as LOST), and lets health
	// probes re-admit it with slow-start weighting.
	RestartServer
	// DrainServer puts a backend in administrative drain: 503s on new
	// INVITEs and health probes while established calls finish.
	DrainServer
)

func (k OpKind) String() string {
	switch k {
	case CrashServer:
		return "crash"
	case RestartServer:
		return "restart"
	case DrainServer:
		return "drain"
	default:
		return "unknown"
	}
}

// Op schedules one process-level fault at an absolute virtual tick.
type Op struct {
	At      time.Duration
	Kind    OpKind
	Backend int
}

// ClusterScenario is a chaos experiment against a balancer-fronted
// PBX farm: offered load plus a script of crash/restart/drain ops.
type ClusterScenario struct {
	Name string
	Desc string
	// Seed makes the run reproducible; it feeds the network, balancer,
	// backends and generator RNGs (with distinct salts).
	Seed uint64
	// Servers is the backend count; PerServer each backend's config.
	Servers   int
	PerServer pbx.Config
	// Policy selects placement, Health the liveness probing.
	Policy cluster.Policy
	Health cluster.HealthConfig
	// Load is the offered traffic, pointed at the balancer.
	Load sipp.Config
	// Ops is the fault script.
	Ops []Op
	// Shards, when > 1, runs the scenario on the partitioned engine:
	// the balancer and its backends share one shard (placement reads
	// backend state synchronously), the generator banks another.
	// Results are bit-identical to the single-scheduler run.
	Shards int
}

// BackendReport is one backend's post-run accounting, aggregated
// across every incarnation a crash/restart cycle produced.
type BackendReport struct {
	Host string
	// Counters sums the PBX counters of all incarnations — the view an
	// external collector keeps even when the process dies.
	Counters pbx.Counters
	// Journal is the CDR WAL's record totals; Committed its durable
	// records (normal ends plus LOST recoveries); Recovered just the
	// LOST records closed by restart (or post-mortem) recovery.
	Journal   pbx.JournalStats
	Committed []pbx.CDR
	Recovered []pbx.CDR
	// OpenAtCrash is how many calls were in flight at the most recent
	// crash — each must reappear as exactly one LOST record.
	OpenAtCrash int
	Crashes     int
	// Leak detectors, summed across incarnations after the drain.
	ActiveChannels     int
	ActiveTransactions int
	UnackedInvites     int
	ActiveSpans        int
}

// ClusterResult is everything a cluster chaos run observed.
type ClusterResult struct {
	Scenario string
	Load     sipp.Results
	Balancer cluster.Counters
	// Events is the deterministic failure/recovery timeline: scheduled
	// ops plus the probe-observed down/up transitions.
	Events   []cluster.Event
	Backends []BackendReport
	// NoRoute counts packets that hit an unbound port — a crashed
	// server's blackholed signalling and media.
	NoRoute uint64
	// PoolGets/PoolPuts are the packet pool's lifetime counters summed
	// over shards; gets != puts after the drain is a buffer leak.
	PoolGets, PoolPuts uint64
	Telemetry          telemetry.Snapshot
	Series             []monitor.Sample
}

// RunCluster executes one cluster scenario to completion.
func RunCluster(sc ClusterScenario) (*ClusterResult, error) {
	k := sc.Shards
	if k < 1 {
		k = 1
	}
	// The balancer and every backend share a shard: placement decisions
	// read backend channel occupancy synchronously. The generator banks
	// take another; all cross-shard traffic rides default 1 ms links.
	farm := []string{"balancer"}
	for i := 0; i < sc.Servers; i++ {
		farm = append(farm, fmt.Sprintf("pbx%d", i+1))
	}
	groups := [][]string{farm, {ClientHost, ServerHost}}
	group := netsim.NewShardGroup(k)
	hostShard := netsim.AssignShards(sc.Seed, groups, k)
	net := netsim.NewShardedNetwork(group, stats.NewRNG(sc.Seed^0xc4a05), hostShard)
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	farmSched := net.SchedulerFor("balancer")
	clock := transport.SimClock{Sched: farmSched}

	reg := telemetry.NewRegistry()
	monitor.RegisterScheduler(reg, group)

	pbxCfg := sc.PerServer
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	if sc.Load.Media == sipp.MediaPacketized {
		pbxCfg.RelayRTP = true
	}
	pbxCfg.Telemetry = reg

	cl := cluster.New(net, clock, cluster.Config{
		Servers:   sc.Servers,
		PerServer: pbxCfg,
		Policy:    sc.Policy,
		Health:    sc.Health,
		Journal:   true,
		Seed:      sc.Seed ^ 0xba1a,
		Telemetry: reg,
	})
	cl.Directory().AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	target := sc.Load.Target
	if target == "" {
		target = "uas"
	}
	cl.Directory().AddUser(directory.User{Username: target, Password: "pw-" + target})

	loadCfg := sc.Load
	if loadCfg.Seed == 0 {
		loadCfg.Seed = sc.Seed ^ 0x51
	}
	loadCfg.Telemetry = reg
	gen := sipp.New(net, ClientHost, ServerHost, cl.Addr(), loadCfg)

	for _, op := range sc.Ops {
		op := op
		farmSched.At(op.At, func(time.Duration) {
			switch op.Kind {
			case CrashServer:
				cl.CrashBackend(op.Backend)
			case RestartServer:
				cl.RestartBackend(op.Backend)
			case DrainServer:
				cl.DrainBackend(op.Backend)
			}
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
		// The sampler lives on the farm shard; stop it via a barrier
		// control stamped with the decision time (see Sampler.StopAt).
		doneAt := genSched.Now()
		group.Control(genShard, func() { sampler.StopAt(doneAt) })
	})
	for i := 0; i < 200 && !done; i++ {
		if err := group.Run(group.Now() + 10*time.Minute); err != nil {
			return nil, err
		}
	}
	if !done {
		return nil, fmt.Errorf("chaos: cluster scenario %q did not finish", sc.Name)
	}
	// Stop the probe plane before the drain tail: its steady OPTIONS
	// traffic keeps lingering server transactions alive on every
	// backend, which would read as a leak below.
	cl.StopProbes()
	if err := group.Run(group.Now() + drainTail); err != nil {
		return nil, err
	}

	res := &ClusterResult{
		Scenario: sc.Name,
		Load:     out,
		NoRoute:  net.NoRoute(),
	}
	res.PoolGets, res.PoolPuts = net.PoolStats()
	for i := 0; i < sc.Servers; i++ {
		rep := BackendReport{Host: fmt.Sprintf("pbx%d", i+1)}
		recovered := cl.Recovered(i)
		if cl.Crashed(i) {
			// The scenario ended with the backend still dead: run the
			// post-mortem recovery pass so its interrupted calls are
			// accounted for, exactly as a restart would have.
			lost := cl.Journal(i).Recover(clock.Now())
			cl.Backends()[i].RecordRecovered(lost)
			recovered = append(recovered, lost...)
		}
		rep.Recovered = recovered
		rep.OpenAtCrash = cl.OpenAtCrash(i)
		for _, srv := range cl.Incarnations(i) {
			c := srv.CountersSnapshot()
			rep.Counters.Attempts += c.Attempts
			rep.Counters.Established += c.Established
			rep.Counters.Blocked += c.Blocked
			rep.Counters.Rejected += c.Rejected
			rep.Counters.Completed += c.Completed
			rep.Counters.Canceled += c.Canceled
			rep.Counters.Failed += c.Failed
			rep.Counters.DrainRejected += c.DrainRejected
			rep.ActiveTransactions += srv.ActiveTransactions()
			rep.UnackedInvites += srv.UnackedInvites()
			rep.ActiveSpans += srv.ActiveSpans()
		}
		rep.Crashes = len(cl.Incarnations(i)) - 1
		live := cl.Backends()[i]
		rep.ActiveChannels = live.ActiveChannels()
		if j := cl.Journal(i); j != nil {
			rep.Journal = j.Stats()
			rep.Committed = j.Committed()
		}
		res.Backends = append(res.Backends, rep)
	}
	// Snapshot balancer state before Close (Close terminates probes).
	res.Balancer = cl.CountersSnapshot()
	res.Events = cl.Events()
	cl.Close()
	res.Telemetry = reg.Snapshot()
	res.Series = sampler.Samples()
	return res, nil
}

// CheckInvariants returns the violated invariants (empty = healthy).
// Beyond the single-server harness's leak checks, the cluster run
// must prove crash-consistent accounting:
//
//   - no channel, transaction or span leak on any incarnation of any
//     backend — a crash must not strand a span in "open";
//   - the CDR journal balances: every begin has exactly one end
//     (normal or LOST), no entry is still open after recovery, and no
//     record was ever double-ended;
//   - the calls in flight at a crash reappear as exactly that many
//     LOST records;
//   - generator accounting conserves calls.
func (r *ClusterResult) CheckInvariants() []string {
	var bad []string
	if r.PoolGets != r.PoolPuts {
		bad = append(bad, fmt.Sprintf("packet pool leak: %d gets vs %d puts", r.PoolGets, r.PoolPuts))
	}
	for _, b := range r.Backends {
		if b.ActiveChannels != 0 {
			bad = append(bad, fmt.Sprintf("%s: channel leak: %d channels still held", b.Host, b.ActiveChannels))
		}
		if b.ActiveTransactions != 0 {
			bad = append(bad, fmt.Sprintf("%s: transaction leak: %d alive after drain", b.Host, b.ActiveTransactions))
		}
		if b.UnackedInvites != 0 {
			bad = append(bad, fmt.Sprintf("%s: ACK index leak: %d un-ACKed INVITEs indexed after drain", b.Host, b.UnackedInvites))
		}
		if b.ActiveSpans != 0 {
			bad = append(bad, fmt.Sprintf("%s: span leak: %d spans open across incarnations", b.Host, b.ActiveSpans))
		}
		j := b.Journal
		if j.Open != 0 {
			bad = append(bad, fmt.Sprintf("%s: journal has %d entries still open after recovery", b.Host, j.Open))
		}
		if j.DoubleEnds != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d CDRs double-ended", b.Host, j.DoubleEnds))
		}
		if j.Begins != j.Ends {
			bad = append(bad, fmt.Sprintf("%s: journal imbalance: %d begins vs %d ends", b.Host, j.Begins, j.Ends))
		}
		if uint64(len(b.Recovered)) != j.Lost {
			bad = append(bad, fmt.Sprintf("%s: %d recovered records vs journal lost=%d", b.Host, len(b.Recovered), j.Lost))
		}
		lost := 0
		for _, c := range b.Committed {
			if c.Lost {
				lost++
			}
		}
		if uint64(lost) != j.Lost {
			bad = append(bad, fmt.Sprintf("%s: %d LOST CDRs committed vs journal lost=%d", b.Host, lost, j.Lost))
		}
	}
	l := r.Load
	if l.Attempts != l.Established+l.Blocked+l.Abandoned+l.Failed {
		bad = append(bad, fmt.Sprintf("call accounting: %d attempts != %d+%d+%d+%d",
			l.Attempts, l.Established, l.Blocked, l.Abandoned, l.Failed))
	}
	return bad
}

// TimelineSummary renders the failure/recovery timeline and the
// crash-accounting totals as one deterministic string — the golden
// pin for same-config-same-seed ⇒ bit-identical failover behaviour.
func (r *ClusterResult) TimelineSummary() string {
	s := ""
	for i, e := range r.Events {
		if i > 0 {
			s += ";"
		}
		s += e.String()
	}
	var lost, recovered int
	for _, b := range r.Backends {
		lost += int(b.Journal.Lost)
		recovered += len(b.Committed) - int(b.Journal.Lost)
	}
	return fmt.Sprintf("%s|redirects=%d failovers=%d unroutable=%d repins=%d|lost=%d recovered=%d|attempts=%d est=%d blocked=%d failed=%d",
		s, r.Balancer.Redirects, r.Balancer.Failovers, r.Balancer.UnroutableInvites, r.Balancer.Repins,
		lost, recovered, r.Load.Attempts, r.Load.Established, r.Load.Blocked, r.Load.Failed)
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
func CrashFailover(seed uint64) ClusterScenario {
	return ClusterScenario{
		Name:    "crash-failover",
		Desc:    "crash 1 of 3 backends at peak, health-probe markdown, failover, restart with slow-start",
		Seed:    seed,
		Servers: 3,
		PerServer: pbx.Config{
			MaxChannels: 8,
		},
		Policy: cluster.LeastBusy,
		Health: cluster.HealthConfig{
			ProbeInterval: time.Second,
			ProbeTimeout:  time.Second,
			FailThreshold: 3,
			SlowStart:     5 * time.Second,
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
		Ops: []Op{
			{At: 20 * time.Second, Kind: CrashServer, Backend: 0},
			{At: 38 * time.Second, Kind: RestartServer, Backend: 0},
		},
	}
}

// CrashMedia exercises the crash path with packetized RTP through the
// relays: when backend 0 dies its relay ports go dark mid-call, the
// callee-side media watchdog detects the stalled stream and hangs up,
// and the restarted backend absorbs the stray BYEs.
func CrashMedia(seed uint64) ClusterScenario {
	return ClusterScenario{
		Name:    "crash-media",
		Desc:    "backend crash with live RTP relays; media watchdog reaps orphaned callee legs",
		Seed:    seed,
		Servers: 3,
		PerServer: pbx.Config{
			MaxChannels: 4,
		},
		Policy: cluster.LeastBusy,
		Health: cluster.HealthConfig{
			ProbeInterval: 500 * time.Millisecond,
			ProbeTimeout:  500 * time.Millisecond,
			FailThreshold: 2,
			SlowStart:     2 * time.Second,
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
		Ops: []Op{
			{At: 12 * time.Second, Kind: CrashServer, Backend: 0},
			{At: 22 * time.Second, Kind: RestartServer, Backend: 0},
		},
	}
}

// DrainRolling drains one backend of three under steady load: new
// placements shift to its peers while its established calls complete,
// the drain-duration histogram records the window, and the probe
// plane marks the draining server down (its OPTIONS answer 503).
func DrainRolling(seed uint64) ClusterScenario {
	return ClusterScenario{
		Name:    "drain-rolling",
		Desc:    "administrative drain of one backend under load; calls finish, placement shifts",
		Seed:    seed,
		Servers: 3,
		PerServer: pbx.Config{
			MaxChannels: 8,
		},
		Policy: cluster.LeastBusy,
		Health: cluster.HealthConfig{
			ProbeInterval: time.Second,
			ProbeTimeout:  time.Second,
			FailThreshold: 2,
			SlowStart:     2 * time.Second,
		},
		Load: sipp.Config{
			Rate:     1.5,
			Window:   45 * time.Second,
			Hold:     8 * time.Second,
			HoldDist: sipp.HoldExponential,
			RetryMax: 1,
		},
		Ops: []Op{
			{At: 15 * time.Second, Kind: DrainServer, Backend: 0},
		},
	}
}
