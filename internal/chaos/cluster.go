package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
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
	// Results are bit-identical to the one-shard run.
	Shards int
}

// BackendReport is one backend's post-run accounting: its books summed
// across every incarnation a crash/restart cycle produced — the view an
// external collector keeps even when the process dies, LOST records of
// restart or post-mortem recovery included — plus the crash ledger.
type BackendReport struct {
	rig.Books
	// OpenAtCrash is how many calls were in flight at the most recent
	// crash — each must reappear as exactly one LOST record.
	OpenAtCrash int
	Crashes     int
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
	// The balancer and every backend share a shard: placement decisions
	// read backend channel occupancy synchronously. The generator banks
	// take another; all cross-shard traffic rides default 1 ms links.
	farm := []string{"balancer"}
	for i := 0; i < sc.Servers; i++ {
		farm = append(farm, fmt.Sprintf("pbx%d", i+1))
	}
	r := rig.NewSim(sc.Shards, sc.Seed, [][]string{farm, {ClientHost, ServerHost}},
		stats.NewRNG(sc.Seed^0xc4a05), netsim.LinkProfile{Delay: time.Millisecond})
	net, clock := r.Net, r.Clock("balancer")

	pbxCfg := sc.PerServer
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	if sc.Load.Media == sipp.MediaPacketized {
		pbxCfg.RelayRTP = true
	}
	pbxCfg.Telemetry = r.Reg

	cl := cluster.New(r, cluster.Config{
		Servers:   sc.Servers,
		PerServer: pbxCfg,
		Policy:    sc.Policy,
		Health:    sc.Health,
		Seed:      sc.Seed ^ 0xba1a,
		Telemetry: r.Reg,
	})
	if err := provision(cl.Directory(), sc.Load.Target); err != nil {
		return nil, err
	}

	loadCfg := sc.Load
	if loadCfg.Seed == 0 {
		loadCfg.Seed = sc.Seed ^ 0x51
	}
	loadCfg.Telemetry = r.Reg
	gen := r.Generator(ClientHost, ServerHost, cl.Addr(), loadCfg)

	for _, op := range sc.Ops {
		op := op
		clock.Sched.At(op.At, func(time.Duration) {
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

	var series []monitor.Sample
	sampler := monitor.NewSampler(r.Reg, clock)
	sampler.SetObserver(func(s monitor.Sample) { series = append(series, s) })
	sampler.Start()

	load, err := r.RunLoad(gen, func() { r.Decide(ClientHost, sampler.StopAt) })
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster scenario %q: %w", sc.Name, err)
	}
	// Stop the probe plane before the drain tail: its steady OPTIONS
	// traffic keeps lingering server transactions alive on every
	// backend, which would read as a leak below.
	cl.StopProbes()
	if err := r.Drain(); err != nil {
		return nil, err
	}

	res := &ClusterResult{
		Scenario: sc.Name,
		Load:     load,
		NoRoute:  net.NoRoute(),
	}
	res.PoolGets, res.PoolPuts = net.PoolStats()
	for i := 0; i < sc.Servers; i++ {
		if cl.Crashed(i) {
			// The scenario ended with the backend still dead: run the
			// post-mortem recovery pass so its interrupted calls are
			// accounted for, exactly as a restart would have.
			cl.Backends()[i].RecoverJournal(clock.Now())
		}
		res.Backends = append(res.Backends, BackendReport{
			Books:       rig.Audit(fmt.Sprintf("pbx%d", i+1), cl.Incarnations(i)...),
			OpenAtCrash: cl.OpenAtCrash(i),
			Crashes:     len(cl.Incarnations(i)) - 1,
		})
	}
	// Snapshot balancer state before Close (Close terminates probes).
	res.Balancer = cl.CountersSnapshot()
	res.Events = cl.Events()
	cl.Close()
	res.Telemetry = r.Reg.Snapshot()
	res.Series = series
	return res, nil
}

// CheckInvariants returns the violated invariants (empty = healthy):
// rig.Invariants over every backend's books, which holds the LOST
// records among them to the journal's count.
func (r *ClusterResult) CheckInvariants() []string {
	books := make([]rig.Books, len(r.Backends))
	for i, b := range r.Backends {
		books[i] = b.Books
	}
	return rig.Invariants(r.PoolGets, r.PoolPuts, r.Load, books...)
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
