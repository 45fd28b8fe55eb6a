// Command capacity reproduces every table and figure of the paper's
// evaluation section in one run:
//
//	capacity -all          # everything (Table I in packetized mode)
//	capacity -fig3         # analytical Erlang-B curves
//	capacity -table1       # the empirical method at A=40..240
//	capacity -fig6         # empirical vs Erlang-B N=160/165/170
//	capacity -fig7         # population dimensioning
//	capacity -sizing       # the Sec. IV worked example
//	capacity -ablations    # design-choice ablations
//	capacity -codec-mix    # mixed-codec transcoding capacity
//	capacity -shard-scaling # sharded-engine throughput scaling
//	capacity -registrar    # registrar throughput + avalanche drain vs shards
//
// -shards N runs the experiment engine partitioned across N shard
// goroutines (bit-identical results, faster on multi-core hosts).
//
// -quick switches Table I to the flow-level media model and trims
// replication counts, for a fast sanity pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every table and figure")
		fig3      = flag.Bool("fig3", false, "Figure 3: Erlang-B curves")
		table1    = flag.Bool("table1", false, "Table I: empirical method")
		fig6      = flag.Bool("fig6", false, "Figure 6: empirical vs analytical")
		fig7      = flag.Bool("fig7", false, "Figure 7: population blocking")
		sizing    = flag.Bool("sizing", false, "Sec. IV sizing check")
		ablations = flag.Bool("ablations", false, "design ablations")
		frontier  = flag.Bool("frontier", false, "overload-strategy frontier: MOS-weighted carried minutes head-to-head")
		extras    = flag.Bool("extras", false, "codec, finite-population and redial studies")
		codecMix  = flag.Bool("codec-mix", false, "mixed-codec transcoding capacity table")
		quick     = flag.Bool("quick", false, "fast mode: flow media, fewer reps")
		steady    = flag.Bool("steady", false, "Figure 6 in steady-state mode (longer windows, warmup)")
		scaling   = flag.Bool("shard-scaling", false, "engine scaling: events/sec at shards=1,2,4")
		registrar = flag.Bool("registrar", false, "registrar throughput and avalanche-drain vs location-store shard count")
		capacity  = flag.Int("capacity", 165, "PBX channel capacity")
		shards    = flag.Int("shards", 0, "partition each experiment across N schedulers (0 or 1 = one, on the calling goroutine)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel experiment workers")
		seed      = flag.Uint64("seed", 20150525, "base RNG seed")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telOut    = flag.String("telemetry-out", "", "run one instrumented A=200 E experiment and write its telemetry JSON dump here")
	)
	flag.Parse()
	if *telOut == "" && !(*all || *fig3 || *table1 || *fig6 || *fig7 || *sizing || *ablations || *frontier || *extras || *codecMix || *scaling || *registrar) {
		*all = true
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capacity: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "capacity: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "capacity: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "capacity: memprofile: %v\n", err)
			}
		}()
	}
	out := os.Stdout
	start := time.Now()

	if *telOut != "" {
		if err := runTelemetryDump(out, *telOut, *capacity, *seed, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "capacity: telemetry-out: %v\n", err)
			os.Exit(1)
		}
	}
	if *all || *fig3 {
		bench.WriteFig3(out, bench.Fig3(260))
		fmt.Fprintln(out)
	}
	if *all || *table1 {
		cols := bench.TableI(bench.TableIOptions{
			Capacity:  *capacity,
			FlowMedia: *quick,
			Workers:   *workers,
			Seed:      *seed,
			Shards:    *shards,
		})
		bench.WriteTableI(out, cols)
		fmt.Fprintln(out)
	}
	if *all || *fig6 {
		reps := 3
		if *quick {
			reps = 1
		}
		opts := bench.Fig6Options{
			Capacity:    *capacity,
			Reps:        reps,
			Workers:     *workers,
			SteadyState: *steady,
			Seed:        *seed,
		}
		points := bench.Fig6(opts)
		bench.WriteFig6(out, points, []int{160, 165, 170})
		fmt.Fprintln(out)
	}
	if *all || *fig7 {
		bench.WriteFig7(out, bench.Fig7(8000, *capacity), 8000, *capacity)
		fmt.Fprintln(out)
	}
	if *all || *sizing {
		bench.WriteSizing(out, bench.Sizing())
		fmt.Fprintln(out)
	}
	if *all || *ablations {
		bench.WriteAdmissionAblation(out, bench.RunAdmissionAblation(240, *seed))
		fmt.Fprintln(out)
		bench.WriteMediaAblation(out, bench.RunMediaAblation(*seed))
		fmt.Fprintln(out)
		reps := 3
		if *quick {
			reps = 2
		}
		bench.WriteArrivalAblation(out, bench.RunArrivalAblation(200, reps, *seed))
		fmt.Fprintln(out)
		bench.WriteHoldAblation(out, bench.RunHoldAblation(200, reps, *seed))
		fmt.Fprintln(out)
		cs, err := bench.RunClusterScaling(240, 165, 3, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capacity: cluster scaling:", err)
			os.Exit(1)
		}
		bench.WriteClusterScaling(out, cs)
		fmt.Fprintln(out)
	}
	if *all || *frontier {
		tbl, err := bench.RunStrategyFrontier(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capacity: frontier:", err)
			os.Exit(1)
		}
		bench.WriteStrategyFrontier(out, tbl)
		fmt.Fprintln(out)
	}
	if *all || *scaling {
		counts := []int{1, 2, 4}
		if *shards > 1 {
			counts = []int{1, *shards}
		}
		bench.WriteShardScaling(out, bench.ShardScalingTable(bench.ShardScalingOptions{
			Capacity:    *capacity,
			ShardCounts: counts,
			Seed:        *seed,
		}))
		fmt.Fprintln(out)
	}
	if *all || *registrar {
		bench.WriteRegistrarCapacity(out, bench.RegistrarCapacityTable(bench.RegistrarOptions{
			Seed: *seed,
		}))
		fmt.Fprintln(out)
	}
	if *all || *codecMix {
		opts := bench.CodecMixOptions{Workers: *workers, Seed: *seed}
		if *quick {
			opts.Workload = 120
		}
		bench.WriteCodecMix(out, bench.CodecMixTable(opts))
		fmt.Fprintln(out)
	}
	if *all || *extras {
		bench.WriteCodecComparison(out, bench.CodecComparison())
		fmt.Fprintln(out)
		bench.WriteFinitePopulation(out, 150, *capacity,
			bench.FinitePopulation(150, *capacity, []int{200, 400, 1000, 8000, 50000}))
		fmt.Fprintln(out)
		bench.WriteRetryInflation(out, 200, *capacity,
			bench.RetryInflation(200, *capacity, []float64{0, 0.25, 0.5, 0.75}))
		fmt.Fprintln(out)
		bench.WriteWiFiStudy(out, bench.WiFiStudy(*seed))
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
