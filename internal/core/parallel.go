package core

import (
	"runtime"
	"sync"

	"repro/internal/cpu"
	"repro/internal/erlang"
	"repro/internal/stats"
)

// serverDropAt evaluates the default CPU model's overload drop
// probability at a utilization, for flow-model quality in
// signalling-only runs.
func serverDropAt(utilization float64) float64 {
	return cpu.DefaultModel().DropProbability(utilization)
}

// Replications is the aggregate of n independent runs of the same
// configuration with different seeds.
type Replications struct {
	Config ExperimentConfig
	Runs   []ExperimentResult
	// Blocking summarizes the per-run blocking probability.
	Blocking stats.Summary
	// MOSMean summarizes the per-run mean MOS.
	MOSMean stats.Summary
	// CPUMean summarizes the per-run mean utilization.
	CPUMean stats.Summary
	// ChannelsUsed summarizes the per-run channel peaks.
	ChannelsUsed stats.Summary
}

// RunReplications executes n independent replications of cfg (seeds
// cfg.Seed, cfg.Seed+1, …) across a bounded worker pool and merges the
// summaries. workers <= 0 selects GOMAXPROCS.
func RunReplications(cfg ExperimentConfig, n, workers int) Replications {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	runs := make([]ExperimentResult, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			c := cfg
			c.Seed = cfg.Seed + uint64(i)*0x9e3779b9
			runs[i] = Run(c)
		}(i)
	}
	wg.Wait()

	rep := Replications{Config: cfg, Runs: runs}
	for _, r := range runs {
		rep.Blocking.Add(r.BlockingProbability())
		if r.MOS.N() > 0 {
			rep.MOSMean.Add(r.MOS.Mean())
		}
		rep.CPUMean.Add(r.CPUMean)
		rep.ChannelsUsed.Add(float64(r.ChannelsUsed))
	}
	return rep
}

// Sweep runs one replication set per workload point, in parallel
// across points (each point's replications run sequentially inside the
// point's worker to bound memory). It preserves input order.
func Sweep(base ExperimentConfig, workloads []float64, reps, workers int) []Replications {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Replications, len(workloads))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, a := range workloads {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, a float64) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := base
			cfg.Workload = erlangFrom(a)
			cfg.Seed = base.Seed + uint64(i)*0x2545f491
			out[i] = RunReplications(cfg, reps, 1)
		}(i, a)
	}
	wg.Wait()
	return out
}

// erlangFrom converts a float workload to the erlang unit type.
func erlangFrom(a float64) erlang.Erlangs { return erlang.Erlangs(a) }
