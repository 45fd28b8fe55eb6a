package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pbx"
	"repro/internal/sipp"
)

// TestRegisterStormScenario drives the steady-state storm: 2000
// endpoints register through the ramp and hold their bindings with
// jittered refreshes for a minute of virtual time. The refresh path
// must ride the nonce cache — after the initial challenge an endpoint
// never sees another 401.
func TestRegisterStormScenario(t *testing.T) {
	res := mustRun(t, RegisterStorm(1))
	l := res.Register
	if l.Refreshes == 0 {
		t.Fatal("storm produced no refreshes")
	}
	if l.Shed != 0 || l.Failed != 0 {
		t.Fatalf("uncapped storm shed %d / failed %d, want 0/0", l.Shed, l.Failed)
	}
	if l.StaleRetries != 0 {
		t.Fatalf("storm hit %d stale re-challenges, want 0 (nonce cache must hold)", l.StaleRetries)
	}
	if res.Backends[0].Nonces.Misses != 0 || res.Backends[0].Nonces.BadAuth != 0 {
		t.Fatalf("nonce cache: %+v, want no misses and no bad auth", res.Backends[0].Nonces)
	}
	if got := res.Backends[0].Incarnations[0].RegisterChallenges; got != uint64(l.Endpoints) {
		t.Errorf("challenges = %d, want exactly one per endpoint (%d)", got, l.Endpoints)
	}
}

// TestRegisterAvalancheScenario is the cold-restart acceptance run:
// the registrar dies fully loaded, restarts with an empty nonce cache,
// and the 10k-endpoint re-REGISTER wave must drain through the
// rate-capped admission lane — stale re-challenges for every cached
// credential, 503 + Retry-After spreading for the overflow, and no
// endpoint left behind (CheckInvariants in mustRunRegistration pins
// drain time and the 503 peak).
func TestRegisterAvalancheScenario(t *testing.T) {
	res := mustRun(t, RegisterAvalanche(1))
	l := res.Register
	if len(res.Backends[0].Incarnations) != 2 {
		t.Fatalf("got %d PBX incarnations, want 2 (crash + restart)", len(res.Backends[0].Incarnations))
	}
	if l.StaleRetries == 0 {
		t.Fatal("restart produced no stale re-challenges; the nonce cache did not reset")
	}
	if l.Shed == 0 {
		t.Fatal("the wave was never shed; the rate cap did not engage")
	}
	if l.DrainTime <= 0 {
		t.Fatal("drain time not recorded")
	}
	// The wave outruns the cap by design, so the drain must take
	// materially longer than the spread interval — the backlog is
	// worked off by Retry-After spreading, not absorbed instantly.
	if l.DrainTime <= 2*time.Second {
		t.Fatalf("drain %s suspiciously fast for a capped wave", l.DrainTime)
	}
	if res.Backends[0].Incarnations[1].RegisterStale == 0 {
		t.Error("restarted incarnation recorded no stale challenges")
	}
	if res.Backends[0].Incarnations[1].RegisterShed == 0 {
		t.Error("restarted incarnation recorded no shed REGISTERs")
	}
}

// TestGoldenAvalancheTimeline pins the avalanche run across the whole
// battery grid: for each seed the per-second timeline, the registrar
// counters and the telemetry snapshot must be byte-identical whatever
// the location store's shard count — shard placement is an internal
// layout choice and must never leak into observable behavior. Seed 1's
// artifacts are additionally pinned to testdata (regenerate with
// UPDATE_GOLDEN=1).
func TestGoldenAvalancheTimeline(t *testing.T) {
	for _, seed := range []uint64{1, 42, 160} {
		var base *Result
		var baseJSON []byte
		for _, shards := range []int{1, 2, 4} {
			sc := RegisterAvalanche(seed)
			sc.DirShards = shards
			res := mustRun(t, sc)
			js, err := res.Telemetry.MarshalIndent()
			if err != nil {
				t.Fatalf("telemetry marshal: %v", err)
			}
			if base == nil {
				base, baseJSON = res, js
				continue
			}
			if got, want := res.TimelineSummary(), base.TimelineSummary(); got != want {
				t.Errorf("seed=%d: timeline differs between dirShards=1 and dirShards=%d:\n got:\n%s\n want:\n%s",
					seed, shards, got, want)
			}
			if fmt.Sprintf("%+v", res.Backends[0].Incarnations) != fmt.Sprintf("%+v", base.Backends[0].Incarnations) {
				t.Errorf("seed=%d dirShards=%d: registrar counters differ: %+v vs %+v",
					seed, shards, res.Backends[0].Incarnations, base.Backends[0].Incarnations)
			}
			if res.Backends[0].Nonces != base.Backends[0].Nonces {
				t.Errorf("seed=%d dirShards=%d: nonce stats differ: %+v vs %+v",
					seed, shards, res.Backends[0].Nonces, base.Backends[0].Nonces)
			}
			if !bytes.Equal(js, baseJSON) {
				t.Errorf("seed=%d dirShards=%d: telemetry snapshot differs from dirShards=1", seed, shards)
			}
		}
		if seed != 1 {
			continue
		}
		goldenCompare(t, filepath.Join("testdata", "register_avalanche_seed1.txt"),
			[]byte(base.TimelineSummary()))
		goldenCompare(t, filepath.Join("testdata", "register_avalanche_telemetry_seed1.json"),
			baseJSON)
	}
}

// TestMillionEndpointStorm is the north-star scale proof: one million
// provisioned endpoints register through a two-minute ramp and hold
// their bindings with jittered refreshes, all in virtual time on the
// sharded location store. Gated behind REGISTER_MILLION=1 — the run
// needs a few GB of heap and minutes of wall clock, which is too heavy
// for tier-1 (the measured run is recorded in EXPERIMENTS.md).
func TestMillionEndpointStorm(t *testing.T) {
	if os.Getenv("REGISTER_MILLION") == "" {
		t.Skip("set REGISTER_MILLION=1 to run the N=1M registration storm")
	}
	sc := Scenario{
		Name:      "million-storm",
		Desc:      "N=1M steady-state storm with jittered refreshes",
		Seed:      20150525,
		DirShards: 64,
		// pbx.New sizes the nonce cache for the 1M population (two
		// nonces a user): at the default 64k cap every cached nonce
		// would be FIFO-evicted long before its ~3.6-minute refresh.
		PBX: pbx.Config{Registrar: pbx.RegistrarConfig{Enabled: true}},
		Register: sipp.RegisterConfig{
			Endpoints:       1_000_000,
			Expires:         240 * time.Second,
			Ramp:            120 * time.Second,
			Window:          240 * time.Second,
			RefreshFraction: 0.9,
		},
	}
	start := time.Now()
	res := mustRun(t, sc)
	l := res.Register
	if l.Refreshes == 0 {
		t.Fatal("million-endpoint storm produced no refreshes")
	}
	if l.Shed != 0 || l.Failed != 0 || l.StaleRetries != 0 {
		t.Fatalf("storm not clean: shed=%d failed=%d stale=%d", l.Shed, l.Failed, l.StaleRetries)
	}
	t.Logf("N=1M storm: %d registers (%d refreshes), peak %d ok/s, %d live bindings, wall %v",
		l.Registers, l.Refreshes, l.PeakOKPerSec, res.LiveBindings, time.Since(start).Round(time.Second))
}

// goldenCompare pins got against the golden file, honoring the repo's
// UPDATE_GOLDEN regeneration convention.
func goldenCompare(t *testing.T, golden string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n got:\n%s\n want:\n%s", golden, got, want)
	}
}
