package difftest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

// goldenEvents pins every shard count directly against the event totals
// of internal/core's TestGoldenDeterminism: a partitioned run must fire
// exactly those events, not merely agree with a fresh one-shard run.
var goldenEvents = map[string]map[uint64]uint64{
	"signalling-200E": {1: 5845, 42: 5683, 160: 6136},
	"flow-model-12E":  {1: 913, 42: 932, 160: 1131},
	"packetized-12E":  {1: 576945, 42: 612966, 160: 1009187},
}

func goldenConfigs() map[string]func(seed uint64) core.ExperimentConfig {
	return map[string]func(seed uint64) core.ExperimentConfig{
		"signalling-200E": func(seed uint64) core.ExperimentConfig {
			return core.ExperimentConfig{Workload: 200, Capacity: 165, Seed: seed}
		},
		"flow-model-12E": func(seed uint64) core.ExperimentConfig {
			return core.ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaNone, Seed: seed}
		},
		"packetized-12E": func(seed uint64) core.ExperimentConfig {
			return core.ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaPacketized, Seed: seed}
		},
	}
}

// TestDiffGoldenConfigs runs every golden configuration at three seeds
// under shards=2 and shards=4, demanding bit-identical results against
// the one-shard run and the pinned golden event totals. Each seed's
// one-shard run is made once and diffed against both sharded runs. The
// flow-model seed-1 cell doubles as the telemetry-snapshot golden (core
// pins its JSON byte-for-byte at one shard; the diff harness pins
// sharded == one shard, so the sharded snapshot is transitively pinned
// to the file).
func TestDiffGoldenConfigs(t *testing.T) {
	for name, mk := range goldenConfigs() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 42, 160} {
				cfg := mk(seed)
				cfg.Shards = 1
				single := core.Run(cfg)
				for _, shards := range []int{2, 4} {
					cfg.Shards = shards
					sharded := core.Run(cfg)
					if diffs := DiffResults(single, sharded); len(diffs) > 0 {
						for _, d := range diffs {
							t.Errorf("seed=%d shards=%d %s", seed, shards, d)
						}
						return
					}
					if got, want := sharded.Events, goldenEvents[name][seed]; got != want {
						t.Errorf("seed=%d shards=%d events=%d, golden pin %d", seed, shards, got, want)
					}
				}
			}
		})
	}
}

// TestDiffCodecMix covers the transcoding plane: a mixed-codec
// workload against an all-codec PBX forces SDP negotiation, payload
// re-framing and per-call codec RNG draws through the sharded engine.
func TestDiffCodecMix(t *testing.T) {
	cfg := core.ExperimentConfig{
		Workload: 12, Capacity: 165, Media: sipp.MediaPacketized,
		CodecMix: []sipp.CodecShare{
			{Name: "g711", Payloads: []int{0, 8}, Share: 0.5},
			{Name: "g729", Payloads: []int{18}, Share: 0.5},
		},
		PBXCodecs:    codec.AllPayloadTypes(),
		CalleeCodecs: []int{0, 8},
		Seed:         42,
	}
	for _, shards := range []int{2, 4} {
		for _, d := range DiffExperiment(cfg, shards) {
			t.Errorf("shards=%d %s", shards, d)
		}
	}
}

// TestDiffIslands checks the replicated-workload placement: island 0 of
// a 4-island, 4-shard run must report exactly what a single-island
// one-shard run reports, while the replicas only add events.
func TestDiffIslands(t *testing.T) {
	base := core.ExperimentConfig{Workload: 12, Capacity: 10, Seed: 7}
	single := core.Run(base)
	repl := base
	repl.Shards = 4
	repl.Islands = 4
	res := core.Run(repl)
	if got, want := res.Load, single.Load; len(got.Records) != len(want.Records) || got.Attempts != want.Attempts {
		t.Errorf("island-0 load diverged: %+v vs %+v", got, want)
	}
	if len(res.CDRs) != len(single.CDRs) {
		t.Errorf("island-0 CDRs: %d vs %d", len(res.CDRs), len(single.CDRs))
	}
	if res.Capture != single.Capture {
		t.Errorf("island-0 capture diverged: %+v vs %+v", res.Capture, single.Capture)
	}
	if res.Events <= single.Events {
		t.Errorf("replicas added no events: %d vs %d", res.Events, single.Events)
	}
}

// TestDiffChaosScenarios replays the full chaos catalog — overload
// control, dirty links (jitter ≥ delay collapses to one host group),
// signalling partitions, the Erlang operating point — on the
// partitioned engine.
func TestDiffChaosScenarios(t *testing.T) {
	for _, sc := range chaos.Catalog(7) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, d := range DiffScenario(sc, 4) {
				t.Errorf("shards=4 %s", d)
			}
		})
	}
}

// goldenDegradationTimeline pins the seed-1 DegradationSurge ladder
// walk: climb to upstream-throttle as the plateau builds, then three
// throttle/relax cycles as each overload window quenches the storm and
// the hysteresis walks back down, ending at normal after the drain.
var goldenDegradationTimeline = []struct {
	at       time.Duration
	from, to pbx.DegradationStage
}{
	{21 * time.Second, pbx.StageNormal, pbx.StageCodecDowngrade},
	{23 * time.Second, pbx.StageCodecDowngrade, pbx.StagePassthroughOnly},
	{30 * time.Second, pbx.StagePassthroughOnly, pbx.StageUpstreamThrottle},
	{38 * time.Second, pbx.StageUpstreamThrottle, pbx.StagePassthroughOnly},
	{48 * time.Second, pbx.StagePassthroughOnly, pbx.StageUpstreamThrottle},
	{59 * time.Second, pbx.StageUpstreamThrottle, pbx.StagePassthroughOnly},
	{64 * time.Second, pbx.StagePassthroughOnly, pbx.StageCodecDowngrade},
	{75 * time.Second, pbx.StageCodecDowngrade, pbx.StagePassthroughOnly},
	{78 * time.Second, pbx.StagePassthroughOnly, pbx.StageUpstreamThrottle},
	{84 * time.Second, pbx.StageUpstreamThrottle, pbx.StagePassthroughOnly},
	{89 * time.Second, pbx.StagePassthroughOnly, pbx.StageCodecDowngrade},
	{101 * time.Second, pbx.StageCodecDowngrade, pbx.StagePassthroughOnly},
	{114 * time.Second, pbx.StagePassthroughOnly, pbx.StageCodecDowngrade},
	{125 * time.Second, pbx.StageCodecDowngrade, pbx.StageNormal},
}

// TestDiffDegradationTimeline is the ladder's determinism gate: the
// DegradationSurge transition timeline must be bit-identical across
// shards {1,2,4} for seeds {1,42,160} (DiffScenario compares the
// Degradation field along with everything else), and the seed-1
// timeline must match the pinned golden walk above.
func TestDiffDegradationTimeline(t *testing.T) {
	for _, seed := range []uint64{1, 42, 160} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := chaos.Run(chaos.DegradationSurge(seed))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Backends[0].Degradation) == 0 {
				t.Fatal("surge produced no ladder transitions")
			}
			if seed == 1 {
				if len(res.Backends[0].Degradation) != len(goldenDegradationTimeline) {
					t.Fatalf("timeline has %d transitions, golden has %d: %v",
						len(res.Backends[0].Degradation), len(goldenDegradationTimeline), res.Backends[0].Degradation)
				}
				for i, tr := range res.Backends[0].Degradation {
					want := goldenDegradationTimeline[i]
					if tr.At != want.at || tr.From != want.from || tr.To != want.to {
						t.Errorf("transition %d = %v %v->%v, golden %v %v->%v",
							i, tr.At, tr.From, tr.To, want.at, want.from, want.to)
					}
				}
			}
			for _, shards := range []int{2, 4} {
				for _, d := range DiffScenario(chaos.DegradationSurge(seed), shards) {
					t.Errorf("shards=%d %s", shards, d)
				}
			}
		})
	}
}

// TestDiffRegistration is the registrar's determinism gate: the
// 10k-endpoint cold-restart avalanche must be bit-identical between
// one shard and shards {2,4} for seeds {1,42,160} — the generator's per-second timeline,
// both incarnations' counters, the nonce-cache stats, the location
// store's end state and the registrar telemetry JSON all compared
// field by field.
func TestDiffRegistration(t *testing.T) {
	for _, seed := range []uint64{1, 42, 160} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{2, 4} {
				for _, d := range DiffScenario(chaos.RegisterAvalanche(seed), shards) {
					t.Errorf("shards=%d %s", shards, d)
				}
			}
		})
	}
}

// TestDiffChaosSmokeShards2 adds the intermediate shard count on the
// cheap scenario, so both the split and the collapsed placements see a
// 2-shard group.
func TestDiffChaosSmokeShards2(t *testing.T) {
	for _, sc := range []chaos.Scenario{chaos.Smoke(7), chaos.DirtyLink(7)} {
		for _, d := range DiffScenario(sc, 2) {
			t.Errorf("%s shards=2 %s", sc.Name, d)
		}
	}
}

// TestDiffClusterScenarios replays the server-failure drills — crash
// with failover, crash with live media, rolling drain — sharded, which
// exercises barrier-applied crash/restart ops, cross-shard probe-plane
// silence and the CDR journal recovery path.
func TestDiffClusterScenarios(t *testing.T) {
	cases := []chaos.Scenario{
		chaos.CrashFailover(7),
		chaos.CrashMedia(7),
		chaos.DrainRolling(7),
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{2, 4} {
				for _, d := range DiffScenario(sc, shards) {
					t.Errorf("shards=%d %s", shards, d)
				}
			}
		})
	}
}

// TestShardedChaosSmoke is the cheap end-to-end scenario on a 4-shard
// group (under -race in `make race`),
// with the scenario's own invariants — including the packet-pool
// gets==puts balance — checked on the sharded run.
func TestShardedChaosSmoke(t *testing.T) {
	sc := chaos.Smoke(7)
	sc.Shards = 4
	res, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("sharded smoke: %v", err)
	}
	for _, v := range res.CheckInvariants() {
		t.Errorf("invariant violated: %s", v)
	}
	if res.PoolGets == 0 {
		t.Fatalf("pool counters not wired: gets=0 after a packetized run")
	}
	for _, d := range DiffScenario(chaos.Smoke(7), 4) {
		t.Errorf("shards=4 %s", d)
	}
}
