package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/sipp"
	"repro/internal/stats"
)

// sim_table1: the paper's Table I in-process — offered load A from 40
// to 240 Erlangs on N = 165 channels, every 20 ms RTP frame simulated,
// on the single-scheduler engine, the cells one after another on one
// goroutine, three passes with seeds seed, seed+1, seed+2. The work is
// fixed by the seed and host time is what is measured. The paper's
// h = 120 s and 180 s placement window are what -seconds 30 runs; the
// two shrink together with -seconds (80 s and 120 s at the default 20,
// about 28 M events a pass), which keeps every cell's offered load and
// the window-to-hold ratio that decides how far the A ≥ 160 cells get
// into blocking.
var table1Loads = []float64{40, 80, 120, 160, 200, 240}

const (
	table1Channels = 165
	simPasses      = 3
	// Set-ups timed before each of the run's 18 cells, so that setup_s
	// samples the host over the whole run as the other figures do.
	simSetupsPerCell = 6
	// Simulated seconds per second of -seconds.
	simHoldPerSecond   = 4
	simWindowPerSecond = 6
)

func table1Cell(a float64, seed uint64, p params) core.ExperimentConfig {
	return core.ExperimentConfig{
		Workload: erlang.Erlangs(a * p.scale),
		Capacity: p.scaled(table1Channels),
		Hold:     p.dur(simHoldPerSecond),
		Window:   p.dur(simWindowPerSecond),
		Media:    sipp.MediaPacketized,
		Seed:     seed,
	}
}

// simSetup times building the testbed: a run whose placement window
// closes before any call is placed constructs scheduler, network, PBX,
// directory and generator, registers uac and uas, and ends.
func simSetup(cfg core.ExperimentConfig) float64 {
	cfg.Window = time.Nanosecond
	start := time.Now()
	core.Run(cfg)
	return time.Since(start).Seconds()
}

// simPass is one sweep of the six cells.
type simPass struct {
	setups           []float64
	events, attempts uint64
	wall, cpu        time.Duration
	blocked240       int
	first            core.ExperimentResult // the A = 40 cell, for the repeat check
}

func runSimPass(seed uint64, p params, o *outcome) simPass {
	var ps simPass
	for i, a := range table1Loads {
		cfg := table1Cell(a, seed, p)
		for k := 0; k < simSetupsPerCell; k++ {
			ps.setups = append(ps.setups, simSetup(cfg))
		}
		cpu0 := selfCPU()
		start := time.Now()
		r := core.Run(cfg)
		ps.wall += time.Since(start)
		ps.cpu += selfCPU().sub(cpu0).total()
		ps.events += r.Events
		ps.attempts += uint64(r.Load.Attempts)
		if i == 0 {
			ps.first = r
		}
		if a == 240 {
			ps.blocked240 = r.Load.Blocked
		}
		o.Attempted += r.Load.Attempts
		o.Failed += r.Load.Failed
		l := r.Load
		o.check(fmt.Sprintf("sim A=%v seed=%d: attempts = established + blocked + abandoned + failed + throttled", a, seed),
			l.Attempts == l.Established+l.Blocked+l.Abandoned+l.Failed+l.Throttled,
			"%d = %d + %d + %d + %d + %d", l.Attempts, l.Established, l.Blocked, l.Abandoned, l.Failed, l.Throttled)
		o.equal(fmt.Sprintf("sim A=%v seed=%d: server attempts = generator attempts", a, seed),
			float64(r.Server.Attempts), float64(l.Attempts+l.Retries))
	}
	return ps
}

func runSimTable1(p params) (*outcome, error) {
	o := newOutcome("sim_table1", p)
	resetPeakRSS() // earlier workloads in this process are not the simulator's memory

	var setups, rates, walls, cpus []float64
	var first simPass
	for i := 0; i < simPasses; i++ {
		ps := runSimPass(p.seed+uint64(i), p, o)
		if i == 0 {
			first = ps
		}
		setups = append(setups, ps.setups...)
		rates = append(rates, float64(ps.events)/ps.wall.Seconds())
		walls = append(walls, float64(ps.wall)/float64(time.Microsecond)/float64(ps.attempts))
		cpus = append(cpus, float64(ps.cpu)/float64(time.Microsecond)/float64(ps.events))
	}

	o.Metrics["setup_s"] = stats.Percentile(setups, 50)
	o.Samples["setup_s"] = len(setups)
	o.Metrics["throughput_per_s"] = stats.Percentile(rates, 50)
	o.Samples["throughput_per_s"] = simPasses
	// The simulator serves no request; what its user waits for is the
	// table, so the latency is one pass — per simulated call, because
	// how many calls a pass places varies with the seed.
	o.Metrics["latency_p50_us"] = stats.Percentile(walls, 50)
	o.Samples["latency_p50_us"] = simPasses
	o.Layers["loadgen.latency_p99_us"] = stats.Percentile(walls, 100) // three passes support nothing beyond the slowest
	o.Samples["loadgen.latency_p99_us"] = simPasses
	o.Metrics["cpu_us_per_op"] = stats.Percentile(cpus, 50)
	o.Samples["cpu_us_per_op"] = simPasses
	m, err := procStatus(os.Getpid())
	if err != nil {
		return o, err
	}
	o.Metrics["maxrss_mb"] = m.hwmKB / 1024

	o.Layers["netsim.events"] = float64(first.events)
	o.Layers["netsim.events_per_call"] = float64(first.events) / float64(first.attempts)
	if p.scale == 1 {
		o.check("sim A=240: the 503 reject path ran", first.blocked240 > 0, "%d calls blocked", first.blocked240)
	}

	// The same seed must give the same run, event for event.
	again := core.Run(table1Cell(table1Loads[0], p.seed, p))
	o.equal("sim A=40 repeated with the same seed: events", float64(again.Events), float64(first.first.Events))
	o.check("sim A=40 repeated with the same seed: capture totals", again.Capture == first.first.Capture,
		"%+v vs %+v", again.Capture, first.first.Capture)
	return o, nil
}

// simLayers is sim_table1's traced run: the deterministic counters of
// one pass, the allocation cost per event, the two-shard engine against
// the single one, and the netsim primitives timed on their own.
func simLayers(p params, o *outcome) {
	var m0, m1 runtime.MemStats
	cfg := table1Cell(160, p.seed, p)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	single := core.Run(cfg)
	singleWall := time.Since(start)
	runtime.ReadMemStats(&m1)
	o.Layers["core.allocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / float64(single.Events)
	o.Layers["core.bytes_per_event"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(single.Events)

	cfg.Shards = 2
	start = time.Now()
	sharded := core.Run(cfg)
	shardedWall := time.Since(start)
	o.Layers["netsim.shard2_ratio"] = (float64(sharded.Events) / shardedWall.Seconds()) /
		(float64(single.Events) / singleWall.Seconds())
	o.check("sim A=160: two shards give the single engine's capture", sharded.Capture == single.Capture,
		"%+v vs %+v", sharded.Capture, single.Capture)

	o.Layers["netsim.sched_cycle_ns"], o.Layers["netsim.send_deliver_ns"] = netsimCosts()
}
