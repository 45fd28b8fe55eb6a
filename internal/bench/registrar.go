package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/directory"
	"repro/internal/transport"
)

// RegistrarPoint is one shard-count row of the registrar capacity
// study. The sim columns run in virtual time and are bit-identical
// across shard counts by construction (the shard-invariance property);
// the store column runs on the wall clock, where shard count is a
// lock-contention knob and the rate is expected to move.
type RegistrarPoint struct {
	Shards int
	// SimPerSec is the sustained 200-OK REGISTER rate of the
	// steady-state storm, in virtual time.
	SimPerSec float64
	// DrainTime and Peak503 come from the cold-restart avalanche:
	// how long the re-REGISTER wave takes to fully drain, and the
	// worst per-second 503 shed rate while it does.
	DrainTime time.Duration
	Peak503   int
	// StorePerSec is the raw location-store register/refresh rate:
	// GOMAXPROCS workers hammering Directory.Register concurrently.
	StorePerSec float64
}

// RegistrarCapacity is the registrar throughput / avalanche study.
type RegistrarCapacity struct {
	StormEndpoints     int
	AvalancheEndpoints int
	Cores              int
	Points             []RegistrarPoint
}

// RegistrarOptions tunes the study.
type RegistrarOptions struct {
	// ShardCounts defaults to {1, 4, 16, 64}.
	ShardCounts []int
	// Seed is the base seed (default 20150525).
	Seed uint64
	// StoreDuration is the wall-clock window for the raw store
	// measurement per row (default 200ms).
	StoreDuration time.Duration
}

// RegistrarCapacityTable measures registrar throughput and
// avalanche-drain time at each shard count.
func RegistrarCapacityTable(opts RegistrarOptions) RegistrarCapacity {
	if len(opts.ShardCounts) == 0 {
		opts.ShardCounts = []int{1, 4, 16, 64}
	}
	if opts.Seed == 0 {
		opts.Seed = 20150525
	}
	if opts.StoreDuration == 0 {
		opts.StoreDuration = 200 * time.Millisecond
	}
	storm := chaos.RegisterStorm(opts.Seed)
	avalanche := chaos.RegisterAvalanche(opts.Seed)
	out := RegistrarCapacity{
		StormEndpoints:     storm.Register.Endpoints,
		AvalancheEndpoints: avalanche.Register.Endpoints,
		Cores:              runtime.NumCPU(),
	}
	for _, k := range opts.ShardCounts {
		p := RegistrarPoint{Shards: k}

		sc := chaos.RegisterStorm(opts.Seed)
		sc.DirShards = k
		if res, err := chaos.Run(sc); err == nil {
			window := sc.Register.Ramp + sc.Register.Window
			if window > 0 {
				p.SimPerSec = float64(res.Register.Registers) / window.Seconds()
			}
		}

		av := chaos.RegisterAvalanche(opts.Seed)
		av.DirShards = k
		if res, err := chaos.Run(av); err == nil {
			p.DrainTime = res.Register.DrainTime
			p.Peak503 = res.Register.PeakShedPerSec
		}

		p.StorePerSec = storeRegisterRate(k, opts.StoreDuration)
		out.Points = append(out.Points, p)
	}
	return out
}

// storeRegisterRate hammers the bare location store from GOMAXPROCS
// goroutines — the same steady-state refresh mix the micro-benchmark
// runs, expiry heap on the wall clock as in pbxd, as ops/sec on this
// host.
func storeRegisterRate(shards int, dur time.Duration) float64 {
	const users = 4096
	d := directory.NewSharded(shards)
	names := d.Provision("s", 0, users)
	d.StartExpiry(transport.NewRealClock())
	workers := runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(dur)
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			for i := w; time.Now().Before(deadline); i++ {
				d.Register(names[i&(users-1)], "10.0.0.1:5060", time.Duration(i), time.Hour)
				n++
			}
			ops.Add(n)
		}(w)
	}
	wg.Wait()
	return float64(ops.Load()) / dur.Seconds()
}

// WriteRegistrarCapacity renders the study. The sim columns are flat
// across rows on purpose: shard count must not change what the
// registrar does, only how fast the host can do it — the store column
// is where the shards pay rent.
func WriteRegistrarCapacity(w io.Writer, rc RegistrarCapacity) {
	fmt.Fprintf(w, "Registrar capacity: storm N=%d, avalanche N=%d (virtual time), %d core(s)\n",
		rc.StormEndpoints, rc.AvalancheEndpoints, rc.Cores)
	fmt.Fprintf(w, "%8s%14s%12s%12s%16s\n", "shards", "sim reg/s", "drain(s)", "peak 503/s", "store ops/s")
	for _, p := range rc.Points {
		fmt.Fprintf(w, "%8d%14.0f%12.2f%12d%16.0f\n",
			p.Shards, p.SimPerSec, p.DrainTime.Seconds(), p.Peak503, p.StorePerSec)
	}
}
