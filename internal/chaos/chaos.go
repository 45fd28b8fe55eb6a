// Package chaos is a deterministic fault-injection harness for the
// PBX: it composes netsim link impairments (loss, jitter, rate limits,
// duplication, reordering) and a script of control-plane faults
// (partitions, process crashes and restarts, drains, re-REGISTER
// avalanches) into named scenarios, drives call and registration load
// through them on the virtual clock (on a rig.Sim) against a lone PBX
// or a balancer-fronted farm, and checks the invariants that must
// survive any fault (rig.Invariants plus the registrar's) — nothing
// leaked, the CDR journal balanced, every attempt ending in one
// outcome, every endpoint registered.
//
// Everything runs on the discrete-event scheduler with seeded RNGs:
// a scenario is a pure function of its seed, so every run is
// bit-reproducible and every failure is replayable. This is the
// harness the overload-control layer (pbx.Admission +
// client-side Retry-After backoff) is proven with.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
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

// Host names of the fixed topology (Fig. 1 of the paper: client bank,
// PBX, server bank). A farm replaces PBXHost with a balancer and
// backends pbx1..pbxN.
const (
	ClientHost = "sippc"
	PBXHost    = "pbx"
	ServerHost = "sipps"
)

// OpKind is a scripted fault operation.
type OpKind int

// Fault operations.
const (
	// Partition blackholes the target's signalling port for For, as a
	// switch failure would (no-route drops); relay ports stay bound.
	Partition OpKind = iota
	// Crash kills the target process: socket, timers, transactions and
	// calls vanish at once, their journal entries left open.
	Crash
	// Restart re-binds a crashed target with a fresh process, its
	// journal's interrupted records recovered as LOST (a farm's probes
	// then re-admit it with slow start); on a live one it is a no-op.
	Restart
	// Drain 503s new INVITEs and probes while established calls finish.
	Drain
	// Avalanche launches the re-REGISTER wave, spread over For.
	Avalanche
)

var opNames = [...]string{Partition: "partition", Crash: "crash", Restart: "restart", Drain: "drain", Avalanche: "avalanche"}

func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opNames) {
		return "unknown"
	}
	return opNames[k]
}

// Op schedules one fault at an absolute virtual tick.
type Op struct {
	At   time.Duration
	Kind OpKind
	// Backend is the target PBX: 0 for the lone PBX, 0..Servers-1 in
	// a farm. An Avalanche targets the endpoint bank and ignores it.
	Backend int
	// For is a Partition's length and an Avalanche's spread.
	For time.Duration
}

// Fault bundles the injected impairments of one scenario.
type Fault struct {
	// ClientLink impairs both directions between the caller bank and
	// every PBX host; ServerLink likewise for the PBX hosts ↔ callee
	// bank. A zero profile leaves the default clean 1 ms link in place.
	ClientLink netsim.LinkProfile
	ServerLink netsim.LinkProfile
	// Ops is the fault script, scheduled in order.
	Ops []Op
}

// Farm shapes a balancer-fronted PBX farm; zero Servers means the lone
// PBX on PBXHost.
type Farm struct {
	Servers int
	Policy  cluster.Policy
	Health  cluster.HealthConfig
}

// Scenario is one named chaos experiment.
type Scenario struct {
	Name string
	Desc string
	// Seed makes the run reproducible; it feeds the network, PBX,
	// balancer and generator RNGs (with distinct salts).
	Seed uint64
	// PBX configures each server under test (admission policy, CPU
	// model, channel pool); registrations force Registrar.Enabled.
	PBX  pbx.Config
	Farm Farm
	// Load is the offered call traffic (Rate 0 offers none); Register
	// the registration storm (Endpoints 0 offers none).
	Load     sipp.Config
	Register sipp.RegisterConfig
	// DirShards sizes the lone PBX's location store (0 = the
	// directory default). Every externally visible artifact must be
	// invariant under it.
	DirShards int
	// MaxDrain is the invariant ceiling on avalanche drain time;
	// MaxPeak503 on the per-second 503 peak at the client (0 =
	// unchecked).
	MaxDrain   time.Duration
	MaxPeak503 int
	Fault      Fault
	// Shards > 1 runs on the partitioned engine, bit-identical to one
	// shard: generator banks on one shard, the PBX hosts on another
	// (balancer placement reads backend state synchronously).
	Shards int
}

// pbxHosts returns the PBX host, or the balancer then its backends.
func (sc Scenario) pbxHosts() []string {
	if sc.Farm.Servers <= 0 {
		return []string{PBXHost}
	}
	hosts := []string{"balancer"}
	for i := 0; i < sc.Farm.Servers; i++ {
		hosts = append(hosts, fmt.Sprintf("pbx%d", i+1))
	}
	return hosts
}

// placementGroups returns the host groups a scenario may split across
// shards. An impaired link with no guaranteed minimum delay (jitter ≥
// delay) cannot cross a shard boundary: then every host is one group.
func (sc Scenario) placementGroups(hosts []string) [][]string {
	zero := netsim.LinkProfile{}
	if (sc.Fault.ClientLink != zero && sc.Fault.ClientLink.Lookahead() <= 0) ||
		(sc.Fault.ServerLink != zero && sc.Fault.ServerLink.Lookahead() <= 0) {
		return [][]string{append([]string{ClientHost, ServerHost}, hosts...)}
	}
	return [][]string{{ClientHost, ServerHost}, hosts}
}

// validate rejects a fault script Run could not carry out, naming the
// first bad op.
func (sc Scenario) validate() error {
	servers := max(sc.Farm.Servers, 1)
	for i, op := range sc.Fault.Ops {
		var why string
		switch {
		case op.Kind.String() == "unknown":
			why = fmt.Sprintf("unknown kind %d", int(op.Kind))
		case op.Kind == Avalanche && sc.Register.Endpoints == 0:
			why = "no registration load to re-register"
		case op.Kind != Avalanche && (op.Backend < 0 || op.Backend >= servers):
			why = fmt.Sprintf("backend %d of %d", op.Backend, servers)
		case op.Kind == Partition && op.For <= 0:
			why = fmt.Sprintf("partition length %s", op.For)
		}
		if why != "" {
			return fmt.Errorf("chaos: scenario %q: op %d (%s at %s): %s", sc.Name, i, op.Kind, op.At, why)
		}
	}
	return nil
}

// backends is the process history of a run's PBX hosts, by index.
type backends interface {
	CrashBackend(i int)
	RestartBackend(i int) []pbx.CDR
	DrainBackend(i int)
	Crashed(i int) bool
	OpenAtCrash(i int) int
	Incarnations(i int) []*pbx.Server
	Close()
}

// lonePBX keeps the lone server's history the way cluster.Cluster
// keeps a backend's: incarnations oldest first, one CDR journal (its
// disk) threaded through them. The location store survives a restart
// too: it is the AOR database, not process memory.
type lonePBX struct {
	r           *rig.Sim
	dir         *directory.Directory
	cfg         pbx.Config
	incs        []*pbx.Server
	crashed     bool
	openAtCrash int
}

func (p *lonePBX) live() *pbx.Server { return p.incs[len(p.incs)-1] }

func (p *lonePBX) CrashBackend(int) {
	if p.crashed {
		return
	}
	p.crashed = true
	p.live().Crash()
	p.openAtCrash = p.cfg.Journal.Stats().Open
}

func (p *lonePBX) RestartBackend(int) []pbx.CDR {
	if !p.crashed {
		return nil
	}
	cfg := p.cfg
	cfg.Seed ^= 0x2
	srv := p.r.PBX(PBXHost, p.dir, cfg)
	p.incs = append(p.incs, srv)
	p.crashed = false
	return srv.RecoverJournal(p.r.Clock(PBXHost).Now())
}

func (p *lonePBX) DrainBackend(int)               { p.live().Drain() }
func (p *lonePBX) Crashed(int) bool               { return p.crashed }
func (p *lonePBX) OpenAtCrash(int) int            { return p.openAtCrash }
func (p *lonePBX) Incarnations(int) []*pbx.Server { return p.incs }

func (p *lonePBX) Close() { p.live().Close() } // a crash closed the others

// Backend is one PBX host's post-run accounting: its books summed over
// every incarnation, as an external collector keeps them across a
// crash (LOST records included), the crash ledger, and the live
// process's own views.
type Backend struct {
	rig.Books
	// Incarnations holds one counters snapshot per process, oldest
	// first; a crashed one's froze at the crash.
	Incarnations []pbx.Counters
	// OpenAtCrash is how many calls were in flight at the most recent
	// crash — each must reappear as exactly one LOST record.
	OpenAtCrash int
	Crashes     int
	// Signaling and Nonces are the live endpoint's wire counters and
	// nonce cache counters.
	Signaling sip.Stats
	Nonces    directory.NonceStats
	// CPU band (lo, mean, hi) over the busy plateau.
	CPULo, CPUMean, CPUHi float64
	// Degradation is the ladder's transition timeline.
	Degradation []pbx.DegradationTransition
}

// Result is everything a run observed.
type Result struct {
	// Scenario is what ran; CheckInvariants and TimelineSummary read
	// what it offered and its avalanche bounds.
	Scenario Scenario
	// Load is the call generator's per-call view; Register the
	// registration generator's view of the storm.
	Load     sipp.Results
	Register sipp.RegisterResults
	// Backends holds one entry per PBX host: the lone PBX, or the
	// farm's backends in order.
	Backends []Backend
	// Balancer and Events are a farm's: its counters and the
	// failure/recovery timeline (ops plus probe-observed down / up).
	Balancer cluster.Counters
	Events   []cluster.Event
	// Capture is Table I read off the senders' books (monitor.Table):
	// the phones', the registration storm's, the balancer's and every
	// PBX incarnation's, crashed ones included. Caller is the calling
	// phone's share of it.
	Capture monitor.TableRow
	Caller  sip.Stats
	// Links maps "src->dst" to that direction's link counters.
	Links map[string]netsim.LinkStats
	// NoRoute counts packets that hit an unbound port (partitions, a
	// crashed server's blackholed signalling and media).
	NoRoute uint64
	// PoolGets/PoolPuts are the packet pool's lifetime counters summed
	// over shards: gets != puts after the drain is a buffer leak.
	PoolGets, PoolPuts uint64
	// Registered / LiveBindings are the location store's view at the
	// end of the loaded interval, before the drain lets TTLs run out.
	Registered   int
	LiveBindings int64
	// Telemetry is the end-of-run metrics snapshot; Series the sampler's
	// per-second rows over a call load.
	Telemetry telemetry.Snapshot
	Series    []monitor.Sample
}

// Run executes one scenario to completion and returns the observation.
// A fault script it cannot carry out is an error before anything runs.
func Run(sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	calls, regs := sc.Load.Rate > 0, sc.Register.Endpoints > 0
	hosts := sc.pbxHosts()
	r := rig.NewSim(sc.Shards, sc.Seed, sc.placementGroups(hosts), stats.NewRNG(sc.Seed^0xc4a05),
		netsim.LinkProfile{Delay: time.Millisecond})
	net := r.Net
	for _, h := range hosts {
		if sc.Fault.ClientLink != (netsim.LinkProfile{}) {
			net.SetDuplexLink(ClientHost, h, sc.Fault.ClientLink)
		}
		if sc.Fault.ServerLink != (netsim.LinkProfile{}) {
			net.SetDuplexLink(h, ServerHost, sc.Fault.ServerLink)
		}
	}
	// A registration-only run observes the PBX + SIP families on a
	// registry of its own: the rig's scheduler families vary with
	// DirShards (one expiry timer per shard), and the whole point of
	// that battery is that nothing externally visible does.
	reg := r.Reg
	if !calls {
		reg = telemetry.NewRegistry()
	}

	regCfg := sc.Register
	if regCfg.Prefix == "" {
		regCfg.Prefix = "u" // the generator's default account range
	}
	provision := func(dir *directory.Directory) error {
		if calls {
			target := sc.Load.Target
			if target == "" {
				target = "uas"
			}
			if err := rig.AddUsers(dir, "uac", target); err != nil {
				return fmt.Errorf("chaos: %w", err)
			}
		}
		if regs {
			dir.Provision(regCfg.Prefix, 0, regCfg.Endpoints)
		}
		return nil
	}

	pbxCfg := sc.PBX
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	if sc.Load.Media == sipp.MediaPacketized {
		pbxCfg.RelayRTP = true
	}
	if regs {
		pbxCfg.Registrar.Enabled = true
	}
	pbxCfg.Telemetry = reg

	var (
		pbxs  backends
		cl    *cluster.Cluster
		dir   *directory.Directory
		proxy string
	)
	if sc.Farm.Servers > 0 {
		cl = cluster.New(r, cluster.Config{
			Servers:   sc.Farm.Servers,
			PerServer: pbxCfg,
			Policy:    sc.Farm.Policy,
			Health:    sc.Farm.Health,
			Seed:      sc.Seed ^ 0xba1a,
			Telemetry: reg,
		})
		pbxs, dir, proxy = cl, cl.Directory(), cl.Addr()
		if err := provision(dir); err != nil {
			return nil, err
		}
	} else {
		dir = directory.New()
		if sc.DirShards > 0 {
			dir = directory.NewSharded(sc.DirShards)
		}
		// Provisioned before the server starts: pbx.New sizes its nonce
		// cache for the population.
		if err := provision(dir); err != nil {
			return nil, err
		}
		pbxCfg.Journal = pbx.NewCDRJournal()
		one := &lonePBX{r: r, dir: dir, cfg: pbxCfg}
		one.incs = []*pbx.Server{r.PBX(PBXHost, dir, pbxCfg)}
		pbxs, proxy = one, one.live().Addr()
	}

	var gen *sipp.Generator
	if calls {
		loadCfg := sc.Load
		if loadCfg.Seed == 0 {
			loadCfg.Seed = sc.Seed ^ 0x51
		}
		loadCfg.Telemetry = reg
		gen = r.Generator(ClientHost, ServerHost, proxy, loadCfg)
	}
	var regGen *sipp.RegisterGenerator
	if regs {
		if regCfg.Seed == 0 {
			regCfg.Seed = sc.Seed ^ 0x51
		}
		regGen = r.RegisterGenerator(ClientHost, proxy, regCfg)
	}

	for _, op := range sc.Fault.Ops {
		op := op
		host := hosts[0]
		if sc.Farm.Servers > 0 {
			host = hosts[op.Backend+1]
		}
		if op.Kind == Avalanche {
			host = ClientHost
		}
		sched := net.SchedulerFor(host)
		sched.At(op.At, func(time.Duration) {
			switch op.Kind {
			case Partition:
				// Save the signalling binding, drop it for the window,
				// restore it afterwards — unless a crash or a restart has
				// since taken the address.
				addr := netsim.Addr{Host: host, Port: 5060}
				saved := net.Handler(addr)
				if saved == nil {
					return
				}
				net.Unbind(addr)
				sched.At(op.At+op.For, func(time.Duration) {
					if net.Handler(addr) == nil && !pbxs.Crashed(op.Backend) {
						net.Bind(addr, saved)
					}
				})
			case Crash:
				pbxs.CrashBackend(op.Backend)
			case Restart:
				pbxs.RestartBackend(op.Backend)
			case Drain:
				pbxs.DrainBackend(op.Backend)
			case Avalanche:
				regGen.Avalanche(op.For)
			}
		})
	}

	res := &Result{Scenario: sc, Links: map[string]netsim.LinkStats{}}
	var books []sip.Stats // every SIP sender's, for Table I
	var rtp uint64
	called, registered := !calls, !regs
	var loadErr error
	if calls {
		sampler := monitor.NewSampler(reg, r.Clock(hosts[0]))
		sampler.SetObserver(func(s monitor.Sample) { res.Series = append(res.Series, s) })
		sampler.Start()
		gen.Start(func(load sipp.Results, err error) {
			res.Load, loadErr, called = load, err, true
			r.Decide(ClientHost, sampler.StopAt)
		})
	}
	if regs {
		regGen.Start(func(storm sipp.RegisterResults) { res.Register, registered = storm, true })
	}
	// A registration storm steps a second at a time, so the clock stops
	// near the generator's completion and the store can be read while
	// the population's bindings are still live (a ten-minute step would
	// overshoot into TTL expiry).
	step := 10 * time.Minute
	if regs {
		step = time.Second
	}
	err := r.RunUntil(func() bool { return called && registered }, step)
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
	}

	if regs {
		res.Registered, res.LiveBindings = dir.Registered(r.Group.Now()), dir.LiveBindings()
	}
	if cl != nil {
		// Stop the probe plane before the drain tail: its steady
		// OPTIONS traffic keeps lingering server transactions alive on
		// every backend, which would read as a leak.
		cl.StopProbes()
	}
	if err := r.Drain(); err != nil {
		return nil, err
	}

	for i := range max(sc.Farm.Servers, 1) {
		incs := pbxs.Incarnations(i)
		live := incs[len(incs)-1]
		crashes := len(incs) - 1
		if pbxs.Crashed(i) {
			// The scenario ended with the process still dead: run the
			// post-mortem recovery pass so its interrupted calls are
			// accounted for, exactly as a restart would have.
			live.RecoverJournal(r.Clock(hosts[0]).Now())
			crashes++
		}
		host := ""
		if cl != nil {
			host = hosts[i+1]
		}
		b := Backend{
			Books:       rig.Audit(host, incs...),
			OpenAtCrash: pbxs.OpenAtCrash(i),
			Crashes:     crashes,
			Signaling:   live.SignalingStats(),
			Nonces:      live.NonceStats(),
			Degradation: live.DegradationTimeline(),
		}
		b.CPULo, b.CPUMean, b.CPUHi = live.CPUBand()
		for _, srv := range incs {
			b.Incarnations = append(b.Incarnations, srv.CountersSnapshot())
			books = append(books, srv.SignalingStats())
		}
		rtp += b.Counters.RelayedPackets
		res.Backends = append(res.Backends, b)
	}
	if cl != nil {
		res.Balancer, res.Events = cl.CountersSnapshot(), cl.Events()
		books = append(books, cl.SignalingStats())
	}
	pbxs.Close()

	if calls {
		var callee sip.Stats
		res.Caller, callee = gen.SignalingStats()
		books = append(books, res.Caller, callee)
		rtp += gen.Results().RTPSent
	}
	if regs {
		books = append(books, regGen.SignalingStats())
	}
	res.Capture = monitor.Table(rtp, books...)
	res.NoRoute = net.NoRoute()
	res.PoolGets, res.PoolPuts = net.PoolStats()
	for _, h := range hosts {
		for _, pair := range [][2]string{{ClientHost, h}, {h, ClientHost}, {h, ServerHost}, {ServerHost, h}} {
			res.Links[pair[0]+"->"+pair[1]] = net.LinkStats(pair[0], pair[1])
		}
	}
	res.Telemetry = reg.Snapshot()
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

// avalanche reports whether the script launches a re-REGISTER wave.
func (sc Scenario) avalanche() bool {
	for _, op := range sc.Fault.Ops {
		if op.Kind == Avalanche {
			return true
		}
	}
	return false
}

// CheckInvariants returns the violated invariants (empty = healthy).
// With registrations offered:
//
//   - every endpoint completed its initial registration and none
//     exhausted its retries — shedding delays, it must not strand;
//   - the store agrees: one live binding per endpoint (and per call
//     generator phone) at the end;
//   - REGISTER accounting conserves: successes are the sum of initial
//     registrations, refreshes and re-registrations;
//   - an avalanche drains completely, within MaxDrain, and the 503
//     peak stays under MaxPeak503 (Retry-After spreading must prevent
//     a synchronized retry storm).
//
// Then rig.Invariants over every PBX host's books, which holds the
// LOST records among them to the journal's count.
func (r *Result) CheckInvariants() []string {
	var bad []string
	if l := r.Register; r.Scenario.Register.Endpoints > 0 {
		avalanche := r.Scenario.avalanche()
		// A crash may wipe in-flight initial registrations; those
		// endpoints are swept up by the avalanche wave instead, so the
		// full-coverage demand moves to Reregisters below.
		if !avalanche && l.Initial != l.Endpoints {
			bad = append(bad, fmt.Sprintf("initial registrations: %d of %d endpoints", l.Initial, l.Endpoints))
		}
		if l.Failed != 0 {
			bad = append(bad, fmt.Sprintf("%d endpoints exhausted their retries", l.Failed))
		}
		if l.Registers != l.Initial+l.Refreshes+l.Reregisters {
			bad = append(bad, fmt.Sprintf("REGISTER accounting: %d != %d+%d+%d",
				l.Registers, l.Initial, l.Refreshes, l.Reregisters))
		}
		want := l.Endpoints
		if r.Scenario.Load.Rate > 0 {
			want += 2 // the call generator's caller and callee
		}
		if r.Registered != want {
			bad = append(bad, fmt.Sprintf("store: %d registered users, want %d", r.Registered, want))
		}
		if r.LiveBindings != int64(want) {
			bad = append(bad, fmt.Sprintf("store: %d live bindings, want %d", r.LiveBindings, want))
		}
		if avalanche {
			if l.Reregisters != l.Endpoints {
				bad = append(bad, fmt.Sprintf("avalanche: %d of %d endpoints re-registered", l.Reregisters, l.Endpoints))
			}
			if l.DrainTime <= 0 {
				bad = append(bad, "avalanche: drain time not recorded")
			} else if r.Scenario.MaxDrain > 0 && l.DrainTime > r.Scenario.MaxDrain {
				bad = append(bad, fmt.Sprintf("avalanche: drain took %s, ceiling %s", l.DrainTime, r.Scenario.MaxDrain))
			}
			if r.Scenario.MaxPeak503 > 0 && l.PeakShedPerSec > r.Scenario.MaxPeak503 {
				bad = append(bad, fmt.Sprintf("avalanche: 503 peak %d/s, ceiling %d/s", l.PeakShedPerSec, r.Scenario.MaxPeak503))
			}
		}
	}
	books := make([]rig.Books, len(r.Backends))
	for i, b := range r.Backends {
		books[i] = b.Books
	}
	return append(bad, rig.Invariants(r.PoolGets, r.PoolPuts, r.Load, books...)...)
}

// TimelineSummary renders the run as deterministic text — the golden
// pin for same-config-same-seed ⇒ bit-identical behaviour. Calls give
// one line: the failure/recovery timeline, the balancer's counters and
// the crash-accounting totals. Registrations give a block: the
// aggregate line, the avalanche line, and the per-second OK/503 series
// as seen by the endpoint bank.
func (r *Result) TimelineSummary() string {
	var b strings.Builder
	if r.Scenario.Load.Rate > 0 {
		for i, e := range r.Events {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(e.String())
		}
		var lost, recovered int
		for _, be := range r.Backends {
			lost += int(be.Journal.Lost)
			recovered += len(be.Committed) - int(be.Journal.Lost)
		}
		fmt.Fprintf(&b, "|redirects=%d failovers=%d unroutable=%d repins=%d|lost=%d recovered=%d|attempts=%d est=%d blocked=%d failed=%d",
			r.Balancer.Redirects, r.Balancer.Failovers, r.Balancer.UnroutableInvites, r.Balancer.Repins,
			lost, recovered, r.Load.Attempts, r.Load.Established, r.Load.Blocked, r.Load.Failed)
	}
	if l := r.Register; r.Scenario.Register.Endpoints > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "endpoints=%d registers=%d initial=%d refreshes=%d reregisters=%d stale=%d shed=%d retries=%d failed=%d\n",
			l.Endpoints, l.Registers, l.Initial, l.Refreshes, l.Reregisters, l.StaleRetries, l.Shed, l.Retries, l.Failed)
		fmt.Fprintf(&b, "bindings=%d registered=%d peak_ok/s=%d peak_503/s=%d\n",
			r.LiveBindings, r.Registered, l.PeakOKPerSec, l.PeakShedPerSec)
		if r.Scenario.avalanche() {
			fmt.Fprintf(&b, "avalanche at=%s drain=%s\n", l.AvalancheAt, l.DrainTime)
		}
		b.WriteString("sec      ok    503\n")
		for _, s := range l.Samples {
			fmt.Fprintf(&b, "%3d  %6d %6d\n", s.Sec, s.OK, s.Shed)
		}
	}
	return b.String()
}
