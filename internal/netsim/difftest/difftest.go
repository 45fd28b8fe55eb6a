// Package difftest is the determinism-differential harness of the
// sharded engine: it executes the same experiment once on a group of
// one shard and once partitioned across several, then compares every
// externally observable artifact — generator results,
// PBX counters, the CDR stream, the Table I rows, the telemetry
// snapshot, the per-second series — demanding bit-identical output.
//
// The sharded scheduler's correctness argument is a chain of ordering
// equivalences (the (at, schedAt, ord) event key, per-link RNG streams,
// whole-second barrier serialization); this package is where the chain
// is checked end to end, against every golden configuration the repo
// pins, so any future engine change that breaks one link shows up as a
// concrete field-level diff rather than a silently drifted golden.
package difftest

import (
	"fmt"
	"reflect"

	"repro/internal/chaos"
	"repro/internal/core"
)

// diff collects field-level mismatches between two runs.
type diff struct {
	fields []string
}

func (d *diff) eq(name string, a, b interface{}) {
	if !reflect.DeepEqual(a, b) {
		d.fields = append(d.fields, fmt.Sprintf("%s:\n  shards=1: %+v\n  sharded:  %+v", name, a, b))
	}
}

// healthy adds the invariants either run violated: two runs that agree
// on a leak are not a pass.
func (d *diff) healthy(a, b interface{ CheckInvariants() []string }) {
	for _, v := range a.CheckInvariants() {
		d.fields = append(d.fields, "shards=1 invariant: "+v)
	}
	for _, v := range b.CheckInvariants() {
		d.fields = append(d.fields, "sharded invariant: "+v)
	}
}

func (d *diff) json(name string, a, b []byte) {
	if string(a) != string(b) {
		d.fields = append(d.fields, fmt.Sprintf("%s: %d vs %d bytes (content differs)", name, len(a), len(b)))
	}
}

// DiffExperiment runs cfg at both shard counts — cfg.Shards forced to 1
// and to shards — and returns DiffResults of the two runs.
func DiffExperiment(cfg core.ExperimentConfig, shards int) []string {
	single := cfg
	single.Shards = 1
	sharded := cfg
	sharded.Shards = shards
	return DiffResults(core.Run(single), core.Run(sharded))
}

// DiffResults returns one entry per result field in which a one-shard
// run a and a sharded run b of the same experiment differ (empty =
// bit-identical). Elapsed and Config are excluded: wall time
// legitimately differs, and Config records the Shards knob itself.
func DiffResults(a, b core.ExperimentResult) []string {
	var d diff
	d.eq("Load", a.Load, b.Load)
	d.eq("Server", a.Server, b.Server)
	d.eq("Capture", a.Capture, b.Capture)
	d.eq("CPUBand", [3]float64{a.CPULo, a.CPUMean, a.CPUHi}, [3]float64{b.CPULo, b.CPUMean, b.CPUHi})
	d.eq("MOS", a.MOS, b.MOS)
	d.eq("ChannelsUsed", a.ChannelsUsed, b.ChannelsUsed)
	d.eq("Events", a.Events, b.Events)
	d.eq("CDRs", a.CDRs, b.CDRs)
	d.eq("Series", a.Series, b.Series)
	d.eq("SLOBreaches", a.SLOBreaches, b.SLOBreaches)
	aj, aerr := a.Telemetry.MarshalIndent()
	bj, berr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", aerr, berr)
	d.json("Telemetry", aj, bj)
	return d.fields
}

// DiffScenario runs a chaos scenario at both shard counts and compares
// every observation the harness records: the generators' views, each
// PBX host's books, incarnations and live views, the balancer and its
// failover timeline, the fault-plane artifacts (link counters,
// no-route drops), the location store and the observation plane.
func DiffScenario(sc chaos.Scenario, shards int) []string {
	single := sc
	single.Shards = 1
	sharded := sc
	sharded.Shards = shards

	a, aerr := chaos.Run(single)
	b, berr := chaos.Run(sharded)
	if aerr != nil || berr != nil {
		return []string{fmt.Sprintf("run error: shards=1: %v, sharded: %v", aerr, berr)}
	}

	var d diff
	d.healthy(a, b)
	d.eq("TimelineSummary", a.TimelineSummary(), b.TimelineSummary())
	d.eq("Load", a.Load, b.Load)
	d.eq("Register", a.Register, b.Register)
	d.eq("Backends", a.Backends, b.Backends)
	d.eq("Balancer", a.Balancer, b.Balancer)
	d.eq("Events", a.Events, b.Events)
	d.eq("Capture", a.Capture, b.Capture)
	d.eq("Caller", a.Caller, b.Caller)
	d.eq("Links", a.Links, b.Links)
	d.eq("NoRoute", a.NoRoute, b.NoRoute)
	d.eq("Store", [2]int64{int64(a.Registered), a.LiveBindings}, [2]int64{int64(b.Registered), b.LiveBindings})
	d.eq("Series", a.Series, b.Series)
	aj, ajErr := a.Telemetry.MarshalIndent()
	bj, bjErr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", ajErr, bjErr)
	d.json("Telemetry", aj, bj)
	return d.fields
}
