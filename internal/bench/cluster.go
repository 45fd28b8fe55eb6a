package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/erlang"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
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
			measured, err := runClusterOnce(a, perServer, k, policy, hold, seed+uint64(k)*31)
			if err != nil {
				return out, err
			}
			out.Points = append(out.Points, ClusterPoint{
				Servers:       k,
				Policy:        policy,
				Measured:      measured,
				PooledErlangB: erlang.B(erlang.Erlangs(a), k*perServer),
				SplitErlangB:  erlang.B(erlang.Erlangs(a/float64(k)), perServer),
			})
		}
	}
	return out, nil
}

func runClusterOnce(a float64, perServer, servers int, policy cluster.Policy, hold time.Duration, seed uint64) (float64, error) {
	r := rig.NewSim(1, seed, nil, stats.NewRNG(seed), netsim.LinkProfile{Delay: time.Millisecond})
	cl := cluster.New(r, cluster.Config{
		Servers:   servers,
		PerServer: pbx.Config{MaxChannels: perServer, Seed: seed},
		Policy:    policy,
	})
	defer cl.Close()
	if err := rig.AddUsers(cl.Directory(), "uac", "uas"); err != nil {
		return 0, err
	}

	gen := r.Generator("sippc", "sipps", cl.Addr(), sipp.Config{
		Rate:   a / hold.Seconds(),
		Window: 150 * time.Second,
		Warmup: 60 * time.Second,
		Hold:   hold,
		Seed:   seed ^ 0xc1,
	})
	res, err := r.RunLoad(gen, nil)
	if err != nil {
		return 0, fmt.Errorf("bench: cluster experiment: %w", err)
	}
	return res.BlockingProbability, nil
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
