package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/erlang"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

// ClusterPoint is one (servers, policy) cell of the scale-out study.
type ClusterPoint struct {
	Servers  int
	Policy   cluster.Policy
	Measured float64 // measured steady-state blocking
	// PooledErlangB is B(A, k·C): the ideal fully-pooled system.
	PooledErlangB float64
	// SplitErlangB is B(A/k, C): k independent servers fed evenly.
	SplitErlangB float64
}

// ClusterScaling is the Sec. IV "increase the number of servers"
// study: blocking vs cluster size under both placement policies.
type ClusterScaling struct {
	Workload  float64
	PerServer int
	Points    []ClusterPoint
}

// RunClusterScaling measures blocking for k = 1..maxServers clusters
// of perServer-channel PBXes at offered load a (steady state).
func RunClusterScaling(a float64, perServer, maxServers int, seed uint64) (ClusterScaling, error) {
	out := ClusterScaling{Workload: a, PerServer: perServer}
	hold := 20 * time.Second
	for k := 1; k <= maxServers; k++ {
		for _, policy := range []cluster.Policy{cluster.RoundRobin, cluster.LeastBusy} {
			if k == 1 && policy == cluster.LeastBusy {
				continue // identical to round-robin with one server
			}
			// Each cell is a fault-free farm whose blocking counts only
			// once its books balance.
			cell := seed + uint64(k)*31
			res, err := chaos.Run(chaos.Scenario{
				Name: fmt.Sprintf("cluster-%d-%s", k, policy),
				Seed: cell,
				PBX:  pbx.Config{MaxChannels: perServer, Seed: cell},
				Farm: chaos.Farm{Servers: k, Policy: policy},
				Load: sipp.Config{
					Rate:   a / hold.Seconds(),
					Window: 150 * time.Second,
					Warmup: 60 * time.Second,
					Hold:   hold,
					Seed:   cell ^ 0xc1,
				},
			})
			if err == nil {
				if bad := res.CheckInvariants(); len(bad) > 0 {
					err = fmt.Errorf("invariants violated: %v", bad)
				}
			}
			if err != nil {
				return out, fmt.Errorf("bench: cluster experiment: %w", err)
			}
			out.Points = append(out.Points, ClusterPoint{
				Servers:       k,
				Policy:        policy,
				Measured:      res.Load.BlockingProbability,
				PooledErlangB: erlang.B(erlang.Erlangs(a), k*perServer),
				SplitErlangB:  erlang.B(erlang.Erlangs(a/float64(k)), perServer),
			})
		}
	}
	return out, nil
}

// WriteClusterScaling renders the study.
func WriteClusterScaling(w io.Writer, cs ClusterScaling) {
	fmt.Fprintf(w, "Cluster scale-out: A=%.0f Erlangs, %d channels per server (steady state)\n",
		cs.Workload, cs.PerServer)
	fmt.Fprintf(w, "%8s%14s%12s%14s%14s\n", "servers", "policy", "measured", "B(A,kC)", "B(A/k,C)")
	for _, p := range cs.Points {
		fmt.Fprintf(w, "%8d%14s%11.2f%%%13.2f%%%13.2f%%\n",
			p.Servers, p.Policy.String(), p.Measured*100, p.PooledErlangB*100, p.SplitErlangB*100)
	}
}
