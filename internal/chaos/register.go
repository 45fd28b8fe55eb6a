package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// RegistrarCrash schedules the cold-restart fault of a registration
// scenario: the PBX process dies at At, a fresh incarnation re-binds
// the same address at RestartAt (sim bind-replaces semantics, the same
// mechanism cluster failover uses), and the endpoint population
// launches its re-REGISTER wave at AvalancheAt spread over Spread.
type RegistrarCrash struct {
	At          time.Duration
	RestartAt   time.Duration
	AvalancheAt time.Duration
	Spread      time.Duration
}

// RegistrationScenario is one named registration chaos experiment:
// a provisioned endpoint population storms the registrar, optionally
// through a cold restart and the resulting re-REGISTER avalanche.
type RegistrationScenario struct {
	Name string
	Desc string
	// Seed feeds the network, PBX and generator RNGs (distinct salts).
	Seed uint64
	// DirShards sizes the sharded location store. Every externally
	// visible artifact must be invariant under this knob — that is the
	// shard-placement invariance the golden battery pins.
	DirShards int
	// PBX configures the server under test; the harness forces
	// Registrar.Enabled.
	PBX pbx.Config
	// Load is the registration workload.
	Load sipp.RegisterConfig
	// Crash, when non-nil, injects the cold restart + avalanche. The
	// avalanche must land inside the generator window or its wave
	// cannot be observed.
	Crash *RegistrarCrash
	// MaxDrain is the invariant ceiling on avalanche drain time;
	// MaxPeak503 on the per-second 503 peak at the client (0 = unchecked).
	MaxDrain   time.Duration
	MaxPeak503 int
	// Shards > 1 runs on the partitioned engine (client bank and PBX on
	// separate schedulers), bit-identical to the one-shard run.
	Shards int
}

// RegistrationResult is everything a registration run observed.
type RegistrationResult struct {
	Scenario string
	// Load is the generator's view of the storm.
	Load sipp.RegisterResults
	// Counters holds one snapshot per PBX incarnation, oldest first —
	// a crashed incarnation's counters freeze at the crash.
	Counters []pbx.Counters
	// Nonces is the live incarnation's nonce-cache counters.
	Nonces directory.NonceStats
	// Registered / LiveBindings are the store's view at the end of the
	// drained run.
	Registered   int
	LiveBindings int64
	DirShards    int
	// PBX is the registrar's books over its incarnations; with the
	// pool counters, what rig.Invariants reads after the drain.
	PBX                rig.Books
	PoolGets, PoolPuts uint64
	NoRoute            uint64
	// Telemetry is the end-of-run metrics snapshot.
	Telemetry telemetry.Snapshot

	maxDrain   time.Duration
	maxPeak503 int
	crashed    bool
}

// RunRegistration executes one registration scenario to completion.
// The topology is two hosts — the endpoint bank and the registrar —
// on the default clean 1 ms link.
func RunRegistration(sc RegistrationScenario) (*RegistrationResult, error) {
	r := rig.NewSim(sc.Shards, sc.Seed, [][]string{{ClientHost}, {PBXHost}},
		stats.NewRNG(sc.Seed^0xc4a05), netsim.LinkProfile{Delay: time.Millisecond})
	net := r.Net

	// Observation plane: the PBX + SIP families only, on a registry of
	// the run's own. The rig's scheduler families are deliberately
	// absent — their event counts vary with DirShards (one expiry timer
	// per shard), and the whole point of the battery is that nothing
	// externally visible does.
	reg := telemetry.NewRegistry()

	dirShards := sc.DirShards
	if dirShards < 1 {
		dirShards = 1
	}
	// Provision under the same account-name default the generator
	// applies, so a scenario that leaves Prefix empty still lines up.
	if sc.Load.Prefix == "" {
		sc.Load.Prefix = "u"
	}
	dir := directory.NewSharded(dirShards)
	dir.Provision(sc.Load.Prefix, 0, sc.Load.Endpoints)

	pbxCfg := sc.PBX
	pbxCfg.Registrar.Enabled = true
	if pbxCfg.Seed == 0 {
		pbxCfg.Seed = sc.Seed ^ 0x9b
	}
	pbxCfg.Telemetry = reg
	incarnations := []*pbx.Server{r.PBX(PBXHost, dir, pbxCfg)}

	loadCfg := sc.Load
	if loadCfg.Seed == 0 {
		loadCfg.Seed = sc.Seed ^ 0x51
	}
	gen := r.RegisterGenerator(ClientHost, incarnations[0].Addr(), loadCfg)

	if c := sc.Crash; c != nil {
		pbxSched := net.SchedulerFor(PBXHost)
		pbxSched.At(c.At, func(time.Duration) {
			incarnations[0].Crash()
		})
		pbxSched.At(c.RestartAt, func(time.Duration) {
			// A fresh process: empty nonce cache, re-bound socket, its
			// own RNG stream. The location store survives (it models
			// the AOR database, not process memory), matching the
			// cluster journal's durability line.
			cfg2 := pbxCfg
			cfg2.Seed = pbxCfg.Seed ^ 0x2
			incarnations = append(incarnations, r.PBX(PBXHost, dir, cfg2))
		})
		net.SchedulerFor(ClientHost).At(c.AvalancheAt, func(time.Duration) {
			gen.Avalanche(c.Spread)
		})
	}

	var out *sipp.RegisterResults
	gen.Start(func(res sipp.RegisterResults) { out = &res })
	// One-second steps, so the clock stops near the generator's
	// completion instant and the store can be observed while the
	// population's bindings are still live (a 10-minute step would
	// overshoot into TTL expiry before the post-run reads).
	if err := r.RunUntil(func() bool { return out != nil }, time.Second); err != nil {
		return nil, fmt.Errorf("chaos: registration scenario %q: %w", sc.Name, err)
	}
	// Read the store at the end of the loaded interval, while the
	// population's bindings are still in their refresh windows — the
	// drain tail below deliberately lets TTLs run out.
	registered := dir.Registered(r.Group.Now())
	liveBindings := dir.LiveBindings()
	if err := r.Drain(); err != nil {
		return nil, err
	}
	live := incarnations[len(incarnations)-1]
	live.Close()

	res := &RegistrationResult{
		Scenario:     sc.Name,
		Load:         *out,
		Nonces:       live.NonceStats(),
		Registered:   registered,
		LiveBindings: liveBindings,
		DirShards:    dirShards,
		PBX:          rig.Audit("", incarnations...),
		NoRoute:      net.NoRoute(),
		Telemetry:    reg.Snapshot(),
		maxDrain:     sc.MaxDrain,
		maxPeak503:   sc.MaxPeak503,
		crashed:      sc.Crash != nil,
	}
	res.PoolGets, res.PoolPuts = net.PoolStats()
	for _, srv := range incarnations {
		res.Counters = append(res.Counters, srv.CountersSnapshot())
	}
	return res, nil
}

// TimelineSummary renders the run as a compact, golden-friendly text
// block: the aggregate line, the avalanche line, and the per-second
// OK/503 series as seen by the endpoint bank.
func (r *RegistrationResult) TimelineSummary() string {
	var b strings.Builder
	l := r.Load
	fmt.Fprintf(&b, "endpoints=%d registers=%d initial=%d refreshes=%d reregisters=%d stale=%d shed=%d retries=%d failed=%d\n",
		l.Endpoints, l.Registers, l.Initial, l.Refreshes, l.Reregisters, l.StaleRetries, l.Shed, l.Retries, l.Failed)
	fmt.Fprintf(&b, "bindings=%d registered=%d peak_ok/s=%d peak_503/s=%d\n",
		r.LiveBindings, r.Registered, l.PeakOKPerSec, l.PeakShedPerSec)
	if r.crashed {
		fmt.Fprintf(&b, "avalanche at=%s drain=%s\n", l.AvalancheAt, l.DrainTime)
	}
	b.WriteString("sec      ok    503\n")
	for _, s := range l.Samples {
		fmt.Fprintf(&b, "%3d  %6d %6d\n", s.Sec, s.OK, s.Shed)
	}
	return b.String()
}

// CheckInvariants returns the violated registration invariants
// (empty = healthy):
//
//   - every endpoint completed its initial registration and none
//     exhausted its retries — shedding delays, it must not strand;
//   - the store agrees: one live binding per endpoint at the end;
//   - REGISTER accounting conserves: successes are the sum of initial
//     registrations, refreshes and re-registrations;
//   - after a cold restart the avalanche drains completely, within
//     MaxDrain, and the 503 peak stays under MaxPeak503 (Retry-After
//     spreading must prevent a synchronized retry storm);
//   - rig.Invariants: nothing left open on any incarnation after the
//     drain tail, and the packet pool balances.
func (r *RegistrationResult) CheckInvariants() []string {
	var bad []string
	l := r.Load
	// A crash may wipe in-flight initial registrations; those endpoints
	// are swept up by the avalanche wave instead, so the full-coverage
	// demand moves to Reregisters below.
	if !r.crashed && l.Initial != l.Endpoints {
		bad = append(bad, fmt.Sprintf("initial registrations: %d of %d endpoints", l.Initial, l.Endpoints))
	}
	if l.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%d endpoints exhausted their retries", l.Failed))
	}
	if l.Registers != l.Initial+l.Refreshes+l.Reregisters {
		bad = append(bad, fmt.Sprintf("REGISTER accounting: %d != %d+%d+%d",
			l.Registers, l.Initial, l.Refreshes, l.Reregisters))
	}
	if r.Registered != l.Endpoints {
		bad = append(bad, fmt.Sprintf("store: %d registered users, want %d", r.Registered, l.Endpoints))
	}
	if r.LiveBindings != int64(l.Endpoints) {
		bad = append(bad, fmt.Sprintf("store: %d live bindings, want %d", r.LiveBindings, l.Endpoints))
	}
	if r.crashed {
		if l.Reregisters != l.Endpoints {
			bad = append(bad, fmt.Sprintf("avalanche: %d of %d endpoints re-registered", l.Reregisters, l.Endpoints))
		}
		if l.DrainTime <= 0 {
			bad = append(bad, "avalanche: drain time not recorded")
		} else if r.maxDrain > 0 && l.DrainTime > r.maxDrain {
			bad = append(bad, fmt.Sprintf("avalanche: drain took %s, ceiling %s", l.DrainTime, r.maxDrain))
		}
		if r.maxPeak503 > 0 && l.PeakShedPerSec > r.maxPeak503 {
			bad = append(bad, fmt.Sprintf("avalanche: 503 peak %d/s, ceiling %d/s", l.PeakShedPerSec, r.maxPeak503))
		}
	}
	return append(bad, rig.Invariants(r.PoolGets, r.PoolPuts, sipp.Results{}, r.PBX)...)
}

// RegisterStorm is the steady-state registration scenario: a
// population registering through the ramp and holding its bindings
// with jittered refreshes for the whole window.
func RegisterStorm(seed uint64) RegistrationScenario {
	return RegistrationScenario{
		Name:      "register-storm",
		Desc:      "steady-state registration load with jittered refreshes",
		Seed:      seed,
		DirShards: 4,
		Load: sipp.RegisterConfig{
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
func RegisterAvalanche(seed uint64) RegistrationScenario {
	return RegistrationScenario{
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
		Load: sipp.RegisterConfig{
			Endpoints:      10000,
			Prefix:         "u",
			Expires:        10 * time.Minute,
			Ramp:           8 * time.Second,
			Window:         52 * time.Second,
			DisableRefresh: true,
		},
		Crash: &RegistrarCrash{
			At:          15 * time.Second,
			RestartAt:   18 * time.Second,
			AvalancheAt: 20 * time.Second,
			Spread:      4 * time.Second,
		},
		MaxDrain:   30 * time.Second,
		MaxPeak503: 6000,
	}
}
