package cluster

import "repro/internal/telemetry"

// Cluster telemetry family names.
const (
	mClusterRedirects     = "cluster_redirects_total"
	mClusterFailovers     = "cluster_failovers_total"
	mClusterRepins        = "cluster_repins_total"
	mClusterProbeFailures = "cluster_probe_failures_total"
	mClusterTransitions   = "cluster_backend_transitions_total"
	mClusterBackendUp     = "cluster_backend_up"
	mClusterOverloads     = "cluster_overload_signals_total"
)

// publish registers the balancer's families on reg: each reads
// Counters, or a node's liveness, under c.mu at scrape time. Called
// once from New, after the nodes exist.
func (c *Cluster) publish(reg *telemetry.Registry) {
	read := func(v func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return v()
		}
	}
	count := func(field *uint64) func() float64 {
		return read(func() float64 { return float64(*field) })
	}
	reg.CounterFunc(mClusterRedirects, "INVITEs answered with 302 toward a backend",
		count(&c.counters.Redirects))
	reg.CounterFunc(mClusterFailovers, "redirects placed while at least one backend was marked down",
		count(&c.counters.Failovers))
	reg.CounterFunc(mClusterRepins, "REGISTERs re-pinned from a down backend to a live one",
		count(&c.counters.Repins))
	reg.CounterFunc(mClusterProbeFailures, "health probes that timed out or got non-200",
		count(&c.counters.ProbeFailures))
	reg.CounterFunc(mClusterTransitions, "backend liveness transitions",
		count(&c.counters.BackendDowns), telemetry.L("to", "down"))
	reg.CounterFunc(mClusterTransitions, "backend liveness transitions",
		count(&c.counters.BackendUps), telemetry.L("to", "up"))
	reg.CounterFunc(mClusterOverloads, "probe responses carrying an X-Overload-Window backoff hint",
		count(&c.counters.OverloadSignals))
	for _, n := range c.nodes {
		reg.GaugeFunc(mClusterBackendUp, "1 while the backend is in placement rotation",
			read(func() float64 {
				if n.up {
					return 1
				}
				return 0
			}), telemetry.L("backend", n.host))
	}
}
