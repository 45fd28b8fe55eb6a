// Package rig is the one place a simulated testbed is assembled — the
// paper's Fig. 4 (generator hosts, PBX, switch) on the virtual clock.
// core, chaos, cluster, bench and the examples are configurations of
// it: they choose hosts, link, seeds and salts (the goldens depend on
// which RNG stream feeds what, so the rig draws none itself) and keep
// what is theirs — fault schedules, crash scripts, result shaping.
//
// There is one engine path: a ShardGroup of max(1, shards) schedulers.
// With one shard the group runs its scheduler on the calling goroutine
// and applies controls inline, so "single-threaded" is a shard count,
// not a second code path.
package rig

import (
	"fmt"
	"time"

	"repro/internal/cpu"
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

// DrainTail is how long Drain keeps the clock running after the last
// call ends: past the 32 s transaction timeout and the 5 s
// completed-transaction linger, so that anything Invariants still finds
// is a leak and not a timer yet to fire.
const DrainTail = 40 * time.Second

// maxSteps bounds RunUntil; the longest scenario (a registration storm
// stepped a second at a time) needs under two hours of virtual time.
const maxSteps = 7200

// Sim is a simulated testbed: schedulers, the network placed on them,
// and the registry its instruments publish into.
type Sim struct {
	Group *netsim.ShardGroup
	Net   *netsim.Network
	// Reg carries the scheduler's pull-style families from the start.
	Reg *telemetry.Registry
}

// NewSim builds the fabric: max(1, shards) schedulers in one group, a
// network whose hosts sit where netsim.AssignShards(placeSeed, groups,
// shards) puts them (hosts in no group fall to shard 0), link as the
// default profile between any two hosts, rng seeding the per-link
// impairment streams.
func NewSim(shards int, placeSeed uint64, groups [][]string, rng *stats.RNG, link netsim.LinkProfile) *Sim {
	if shards < 1 {
		shards = 1
	}
	group := netsim.NewShardGroup(shards)
	net := netsim.NewShardedNetwork(group, rng, netsim.AssignShards(placeSeed, groups, shards))
	net.SetDefaultProfile(link)
	reg := telemetry.NewRegistry()
	monitor.RegisterScheduler(reg, group)
	return &Sim{Group: group, Net: net, Reg: reg}
}

// Clock is the virtual clock of the shard that runs host's events.
func (r *Sim) Clock(host string) transport.SimClock {
	return transport.SimClock{Sched: r.Net.SchedulerFor(host)}
}

// listen binds a port of the simulated network; it cannot fail (a
// malformed address panics in transport.NewSim), hence must below.
func (r *Sim) listen(addr string) (transport.Transport, error) {
	return transport.NewSim(r.Net, addr), nil
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Generator is the paper's SIPp pair under the testbed's conventions:
// signalling on callerHost:5060 and calleeHost:5060, RTP from ports
// 20000 and 30000, timers on callerHost's shard — so both hosts must be
// placed on one shard. Seeds and salts stay with the caller, in cfg.
func (r *Sim) Generator(callerHost, calleeHost, proxy string, cfg sipp.Config) *sipp.Generator {
	return must(sipp.New(r.Clock(callerHost), r.listen,
		sipp.Bind{Addr: callerHost + ":5060", MediaPort: 20000},
		sipp.Bind{Addr: calleeHost + ":5060", MediaPort: 30000}, proxy, cfg))
}

// RegisterGenerator is a registration storm from host:5062 (5060 is
// left to a call generator sharing the host).
func (r *Sim) RegisterGenerator(host, proxy string, cfg sipp.RegisterConfig) *sipp.RegisterGenerator {
	return must(sipp.NewRegister(r.Clock(host), r.listen, host+":5062", proxy, cfg))
}

// AddUsers gives each name an account under the testbed's password
// convention, "pw-<name>", which the generators and phones assume.
func AddUsers(dir *directory.Directory, names ...string) error {
	for _, u := range names {
		if err := dir.AddUser(directory.User{Username: u, Password: "pw-" + u}); err != nil {
			return fmt.Errorf("provisioning %s: %w", u, err)
		}
	}
	return nil
}

// PBX starts a server on host: signalling on host:5060, a call's relay
// legs on host:<port>, SIP families next to the PBX's when
// cfg.Telemetry is set. Every sim PBX journals its calls — the journal
// is the run's CDR ledger (Server.Journal) and what Invariants
// balances; a caller that carries one across a crash passes its own.
// A zero cfg.CPU runs cpu.DefaultModel, the paper's Xeon.
func (r *Sim) PBX(host string, dir *directory.Directory, cfg pbx.Config) *pbx.Server {
	ep := sip.NewEndpoint(transport.NewSim(r.Net, host+":5060"), r.Clock(host))
	if cfg.Telemetry != nil {
		ep.UseTelemetry(cfg.Telemetry)
	}
	if cfg.Journal == nil {
		cfg.Journal = pbx.NewCDRJournal()
	}
	if cfg.CPU == (cpu.Model{}) {
		cfg.CPU = cpu.DefaultModel()
	}
	return pbx.New(ep, dir, func(port int) (transport.Transport, error) {
		return r.listen(fmt.Sprintf("%s:%d", host, port))
	}, cfg)
}

// Decide is for an event on host whose consequence touches another
// shard's state (stopping the sampler, freezing the PBX's CPU meter):
// fn runs with every shard quiescent — inline on one shard, at the next
// window barrier on several — and is handed the virtual time of the
// decision, which by then the barrier has moved past.
func (r *Sim) Decide(host string, fn func(at time.Duration)) {
	at := r.Net.SchedulerFor(host).Now()
	r.Group.Control(r.Net.ShardOf(host), func() { fn(at) })
}

// RunUntil advances virtual time a step at a time until done reports
// true. It returns the scheduler's error, or one of its own when the
// run does not converge.
func (r *Sim) RunUntil(done func() bool, step time.Duration) error {
	for i := 0; i < maxSteps && !done(); i++ {
		if err := r.Group.Run(r.Group.Now() + step); err != nil {
			return err
		}
	}
	if !done() {
		return fmt.Errorf("rig: run did not finish within %d steps of %s", maxSteps, step)
	}
	return nil
}

// Drain runs DrainTail more, letting retransmission timers, lingering
// transactions and in-flight packets settle before Audit reads.
func (r *Sim) Drain() error { return r.Group.Run(r.Group.Now() + DrainTail) }

// Books is what one PBX host shows once a run has drained, summed over
// every incarnation a crash / restart cycle produced.
type Books struct {
	// Host prefixes the violations of a run with several PBXes.
	Host     string
	Counters pbx.Counters
	// Leak detectors: all zero on a healthy run.
	ActiveChannels     int
	ActiveTransactions int
	UnackedInvites     int // the 2xx-ACK index; drains with the transactions
	// Journal is the CDR journal's record totals, Committed its durable
	// records in commit order — the host's call ledger.
	Journal   pbx.JournalStats
	Committed []pbx.CDR
}

// Audit reads a host's books off its incarnations (servers PBX built),
// oldest first; the journal is the live (last) one's, which a caller
// that restarts servers threads through them all.
func Audit(host string, incarnations ...*pbx.Server) Books {
	b := Books{Host: host}
	for _, srv := range incarnations {
		b.Counters.Add(srv.CountersSnapshot())
		b.ActiveChannels += srv.ActiveChannels()
		b.ActiveTransactions += srv.ActiveTransactions()
		b.UnackedInvites += srv.UnackedInvites()
	}
	j := incarnations[len(incarnations)-1].Journal()
	b.Journal, b.Committed = j.Stats(), j.Committed()
	return b
}

// Invariants returns what a drained run left unbalanced (empty =
// healthy). They hold for every scenario, however hostile:
//
//   - the packet pool balances: every packet taken went back exactly
//     once, whichever shard released it;
//   - every admitted call released its channel, and every transaction
//     (and with them the 2xx-ACK index) is gone after the drain tail;
//   - calls are conserved: summed over all incarnations, the outcomes
//     counted add up to the attempts — every INVITE the server counted
//     ended exactly once, a crash's in-flight calls as "lost";
//   - the journal balances: every begin has exactly one end (normal or
//     LOST), none is double-ended, and its records agree with the
//     counters;
//   - no established call was renegotiated: the degradation ladder only
//     shapes calls at admission;
//   - the generator's accounting conserves calls.
func Invariants(poolGets, poolPuts uint64, load sipp.Results, pbxes ...Books) []string {
	var bad []string
	if poolGets != poolPuts {
		bad = append(bad, fmt.Sprintf("packet pool leak: %d gets vs %d puts", poolGets, poolPuts))
	}
	for _, b := range pbxes {
		fail := func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if b.Host != "" {
				msg = b.Host + ": " + msg
			}
			bad = append(bad, msg)
		}
		if b.ActiveChannels != 0 {
			fail("channel leak: %d channels still held", b.ActiveChannels)
		}
		if b.ActiveTransactions != 0 {
			fail("transaction leak: %d transactions alive after drain", b.ActiveTransactions)
		}
		if b.UnackedInvites != 0 {
			fail("ACK index leak: %d un-ACKed INVITEs indexed after drain", b.UnackedInvites)
		}
		if c := b.Counters; c.Ended() != c.Attempts {
			fail("call conservation: %d attempts vs %d outcomes", c.Attempts, c.Ended())
		}
		j := b.Journal
		var completed, established, lost uint64
		for _, c := range b.Committed {
			if c.AnsweredAt > 0 {
				established++
			}
			switch c.Disposition {
			case pbx.Answered:
				completed++
			case pbx.Lost:
				lost++
			}
		}
		// With entries still open the counters run ahead of the ledger
		// by construction; that is the first finding, not a second one.
		if j.Open != 0 || j.DoubleEnds != 0 || j.Begins != j.Ends {
			fail("journal imbalance: %d begins vs %d ends, %d still open, %d double-ended",
				j.Begins, j.Ends, j.Open, j.DoubleEnds)
		} else if completed != b.Counters.Completed || established != b.Counters.Established || lost != j.Lost {
			fail("CDR imbalance: %d completed, %d established, %d LOST records vs Completed=%d Established=%d journal lost=%d",
				completed, established, lost, b.Counters.Completed, b.Counters.Established, j.Lost)
		}
		if b.Counters.Renegotiations != 0 {
			fail("mid-call renegotiation: sentinel=%d (must be 0)", b.Counters.Renegotiations)
		}
	}
	if l := load; l.Attempts != l.Established+l.Blocked+l.Abandoned+l.Failed+l.Throttled {
		bad = append(bad, fmt.Sprintf("call accounting: %d attempts != %d+%d+%d+%d+%d",
			l.Attempts, l.Established, l.Blocked, l.Abandoned, l.Failed, l.Throttled))
	}
	return bad
}
