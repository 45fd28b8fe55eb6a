// Command benchmark is the repository's benchmark: it drives cmd/pbxd
// as a child process over loopback UDP (three wire workloads) and the
// simulator in-process (one), prints every metric by name with its
// unit, verifies the outputs, and exits non-zero on a failed check.
//
//	go run ./benchmark -seed 1                      every workload, end to end
//	go run ./benchmark -seed 1 -trace 1             every workload, the traced per-layer run
//	go run ./benchmark -workload wire_calls -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. See README.md for the
// catalogue and BENCHMARK.json for the contract.
//
// All traffic crosses the host's loopback interface, never a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds is the measuring time of one run; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 20

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, and write a result file)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: the traced run that yields the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments; refuses to compare across hosts")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}

	// Every exit path reaps pbxd: the deferred call on a normal return,
	// the handler on SIGINT / SIGTERM, and the kernel (PDEATHSIG) if the
	// benchmark is killed outright.
	defer stopAllChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()

	host := fingerprint()
	fmt.Printf("benchmark: seed %d, %v s per workload, trace %d — loopback, not a real link\n", *seed, *seconds, *trace)
	fmt.Printf("  host: %s\n", host)
	res := result{Host: host, Note: "loopback, not a real link", Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	status := 0
	var last *outcome
	for _, name := range names {
		p := params{seed: *seed, seconds: *seconds, scale: 1}
		var o *outcome
		var err error
		fmt.Printf("\n== %s ==\n", name)
		if *trace == 1 {
			o, err = runTraced(name, p)
		} else {
			o, err = runUntraced(name, p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printOutcome(o)
		if !o.correct() {
			status = 1
		}
		res.Outcomes = append(res.Outcomes, o)
		last = o
	}
	if *workload == "" {
		path, err := res.write()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("\nresult file: %s\n", path)
	}
	if status != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: output verification failed")
		return status
	}
	// The contract's result line: one workload's when one was asked
	// for, else the last one's (the result file holds them all).
	line, err := json.Marshal(last.resultLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}
