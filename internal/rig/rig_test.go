package rig

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sipp"
	"repro/internal/stats"
)

// testbed is Fig. 4 at its smallest: a generator pair placing one
// packetized call a second for ten seconds, five seconds each, through
// a traced PBX.
func testbed(t *testing.T, shards int) (r *Sim, server *pbx.Server, done func() bool) {
	t.Helper()
	r = NewSim(shards, 3, [][]string{{"sippc", "sipps"}, {"pbx"}}, stats.NewRNG(3),
		netsim.LinkProfile{Delay: time.Millisecond})
	dir := directory.New()
	if err := AddUsers(dir, "uac", "uas"); err != nil {
		t.Fatal(err)
	}
	server = r.PBX("pbx", dir, pbx.Config{MaxChannels: 10, RelayRTP: true, Seed: 3, Telemetry: r.Reg})
	gen := r.Generator("sippc", "sipps", server.Addr(), sipp.Config{
		Rate: 1, Window: 10 * time.Second, Hold: 5 * time.Second,
		Media: sipp.MediaPacketized, Seed: 3, Telemetry: r.Reg,
	})
	var out *sipp.Results
	gen.Start(func(res sipp.Results, err error) {
		if err != nil {
			t.Error(err)
		}
		out = &res
	})
	return r, server, func() bool { return out != nil }
}

func audit(r *Sim, server *pbx.Server) []string {
	gets, puts := r.Net.PoolStats()
	return Invariants(gets, puts, sipp.Results{}, Audit("", server))
}

// names reports whether bad holds exactly one violation per wanted
// name and nothing else.
func names(bad []string, want ...string) bool {
	if len(bad) != len(want) {
		return false
	}
	for i, w := range want {
		if !strings.Contains(bad[i], w) {
			return false
		}
	}
	return true
}

// TestInvariantsNameEachViolation seeds violations by stopping a
// healthy run where it should not be stopped, and expects Invariants to
// name them and nothing else; the same run, drained, is clean — at one
// shard and at four.
func TestInvariantsNameEachViolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		r, server, done := testbed(t, shards)

		// Mid-run, with the wire idle between two 20 ms frames: calls
		// hold channels, have no outcome yet, their journal entries are
		// open and their transactions alive.
		if err := r.Group.Run(8*time.Second + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if bad := audit(r, server); !names(bad, "channel leak", "transaction leak", "call conservation", "journal imbalance") {
			t.Errorf("shards=%d mid-run: %v", shards, bad)
		}

		// Traffic over, drain skipped: only the lingering transactions
		// of the last calls are left.
		if err := r.RunUntil(done, time.Second); err != nil {
			t.Fatal(err)
		}
		if bad := audit(r, server); !names(bad, "transaction leak") {
			t.Errorf("shards=%d undrained: %v", shards, bad)
		}

		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if bad := audit(r, server); len(bad) > 0 {
			t.Errorf("shards=%d drained: %v", shards, bad)
		}
		b := Audit("", server)
		if b.Counters.Established == 0 || uint64(len(b.Committed)) != b.Counters.Attempts {
			t.Errorf("shards=%d: %d CDRs committed for %+v", shards, len(b.Committed), b.Counters)
		}
	}
}

// TestInvariantsPoolAndAccounting covers the two checks that are not
// per PBX — a packet still on a link is a pool imbalance, and the
// generator's outcomes must add up, Throttled among them — and the
// host prefix of a run with several PBXes.
func TestInvariantsPoolAndAccounting(t *testing.T) {
	r := NewSim(1, 0, nil, stats.NewRNG(1), netsim.LinkProfile{Delay: time.Millisecond})
	r.Net.Send(netsim.Addr{Host: "a", Port: 1}, netsim.Addr{Host: "b", Port: 2}, []byte("x"))
	gets, puts := r.Net.PoolStats()
	if bad := Invariants(gets, puts, sipp.Results{}); !names(bad, "packet pool leak") {
		t.Errorf("packet in flight: %v", bad)
	}
	if err := r.Group.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	gets, puts = r.Net.PoolStats()
	if bad := Invariants(gets, puts, sipp.Results{Attempts: 3, Established: 2, Throttled: 1}); len(bad) > 0 {
		t.Errorf("packet delivered, load balanced: %v", bad)
	}
	if bad := Invariants(0, 0, sipp.Results{Attempts: 3, Established: 2}); !names(bad, "call accounting") {
		t.Errorf("3 attempts with 2 outcomes: %v", bad)
	}
	if bad := Invariants(0, 0, sipp.Results{}, Books{}, Books{Host: "pbx2", ActiveChannels: 1}); !names(bad, "pbx2: channel leak") {
		t.Errorf("held channel on the second host: %v", bad)
	}
}

// TestPlacementIsAssignShards: the rig adds nothing to the caller's
// placement — every host sits where netsim.AssignShards puts it, and a
// shard count below one is a group of one.
func TestPlacementIsAssignShards(t *testing.T) {
	groups := [][]string{{"sippc", "sipps"}, {"pbx"}, {"balancer", "pbx1", "pbx2"}}
	for _, shards := range []int{0, 1, 2, 4} {
		for _, seed := range []uint64{0, 1, 7} {
			r := NewSim(shards, seed, groups, stats.NewRNG(1), netsim.LinkProfile{Delay: time.Millisecond})
			k := shards
			if k < 1 {
				k = 1
			}
			if r.Group.N() != k {
				t.Fatalf("shards=%d: group of %d", shards, r.Group.N())
			}
			for host, want := range netsim.AssignShards(seed, groups, k) {
				if got := r.Net.ShardOf(host); got != want {
					t.Errorf("shards=%d seed=%d: %s on shard %d, AssignShards says %d", shards, seed, host, got, want)
				}
				if r.Clock(host).Sched != r.Group.Shard(want) {
					t.Errorf("shards=%d seed=%d: %s's clock is not its shard's", shards, seed, host)
				}
			}
		}
	}
}

// TestRunUntilReturnsErrors: the scheduler's error comes back as it is,
// and a run that never finishes is an error, not a hang or a panic.
func TestRunUntilReturnsErrors(t *testing.T) {
	// Two shards and a zero-delay default link leave no lookahead.
	r := NewSim(2, 0, [][]string{{"a"}, {"b"}}, stats.NewRNG(1), netsim.LinkProfile{})
	if err := r.RunUntil(func() bool { return false }, time.Second); !errors.Is(err, netsim.ErrNoLookahead) {
		t.Errorf("no lookahead: err = %v", err)
	}
	r = NewSim(1, 0, nil, stats.NewRNG(1), netsim.LinkProfile{Delay: time.Millisecond})
	err := r.RunUntil(func() bool { return false }, time.Second)
	if err == nil || r.Group.Now() != maxSteps*time.Second {
		t.Errorf("idle run: err = %v at %v", err, r.Group.Now())
	}
}
