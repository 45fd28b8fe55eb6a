package pbx

import (
	"syscall"
	"time"

	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// These families exist on the wall-clock wiring only: the wire then
// shows what in-process runs read off Endpoint.ActiveTransactions,
// LingeringTransactions, LingeringBytes and ReaperRuns and
// Counters.RejectedPackets, and the simulator's telemetry snapshots
// keep their families.
const (
	mSIPActiveTransactions    = "sip_active_transactions"
	mSIPLingeringTransactions = "sip_lingering_transactions"
	mSIPLingeringBytes        = "sip_lingering_bytes"
	mSIPReaperRuns            = "sip_tx_reaper_runs_total"
	mRelayRejected            = "rtp_relay_rejected_total"
	mProcessCPUSeconds        = "process_cpu_seconds_total"
)

// Wire is a Server on real UDP sockets — cmd/pbxd minus its flags, and
// what the examples, the wire benches and the soak tests run, so that
// they exercise the daemon's wiring and not a copy of it.
type Wire struct {
	Server *Server
	// Listener is the SIP socket set, Legs the pool every call borrows
	// its relay legs from, Registry where all of it publishes.
	Listener *transport.ShardedUDP
	Legs     *transport.LegPool
	Registry *telemetry.Registry

	ep      *sip.Endpoint
	sampler *monitor.Sampler
}

// ListenWire starts a Server on addr with that many SO_REUSEPORT
// listener shards, serving dir. cfg.Telemetry is replaced by the
// Wire's own registry, which also carries the listener's and the leg
// pool's data-plane counters and the per-second sampler's SLO verdicts.
// cfg.CPU is cleared: real sockets run no model of another machine.
func ListenWire(addr string, shards int, dir *directory.Directory, cfg Config) (*Wire, error) {
	// The SIP listener runs the batched data plane; with shards > 1 the
	// kernel spreads inbound flows across that many sockets on the port.
	tr, err := transport.ListenUDPSharded(addr, shards, transport.UDPConfig{})
	if err != nil {
		return nil, err
	}
	clock := transport.NewRealClock()
	ep := sip.NewEndpoint(tr, clock)
	reg := telemetry.NewRegistry()
	ep.UseTelemetry(reg)
	transport.PublishTelemetry(reg, "sip", tr)
	reg.GaugeFunc(mSIPActiveTransactions, "live client and server transactions, lingering ones included",
		func() float64 { return float64(ep.ActiveTransactions()) })
	reg.GaugeFunc(mSIPLingeringTransactions, "transactions in their Completed linger, kept as log entries until the reaper passes them",
		func() float64 { return float64(ep.LingeringTransactions()) })
	reg.GaugeFunc(mSIPLingeringBytes, "bytes of the log lingering transactions are kept in",
		func() float64 { return float64(ep.LingeringBytes()) })
	reg.CounterFunc(mSIPReaperRuns, "sweeps of the lingering-transaction reaper",
		func() float64 { return float64(ep.ReaperRuns()) })

	// Calls borrow their relay legs from one pool, which owns the
	// sockets, reads all of them from one loop and keeps released
	// sockets bound for the next call on the port.
	legs := transport.NewLegPool(sip.AddrURI("", tr.LocalAddr()).Host)
	legs.PublishTelemetry(reg)
	cfg.Telemetry = reg
	cfg.CPU = cpu.Model{}
	server := New(ep, dir, legs.Listen, cfg)
	reg.CounterFunc(mRelayRejected, "datagrams at a relay port refused, by reason",
		func() float64 { return float64(server.CountersSnapshot().RejectedPackets) },
		telemetry.L("reason", "source"))
	reg.CounterFunc(mProcessCPUSeconds, "user and system CPU time this process has used",
		ProcessCPUSeconds)

	// The same per-second sampler + SLO evaluator the simulator runs,
	// on the wall clock: breach counters and the active-breach gauge
	// land in the registry for pbxtop and any scraper.
	sampler := monitor.NewSampler(reg, clock)
	sampler.SetObserver(monitor.NewSLO(reg, monitor.DefaultSLORules()).Observe)
	sampler.Start()
	return &Wire{Server: server, Listener: tr, Legs: legs, Registry: reg, ep: ep, sampler: sampler}, nil
}

// Close stops the server's timers and releases every socket: the
// listener with its read loops, the leg pool with its loop and parked
// legs. Afterwards Listener.PoolStats and Legs.PoolStats must balance.
// It returns the first close error.
func (w *Wire) Close() error {
	w.Server.Close()
	w.sampler.Stop()
	err := w.ep.Close()
	if lerr := w.Legs.Close(); err == nil {
		err = lerr
	}
	return err
}

// ProcessCPUSeconds is the user plus system CPU time this process has
// used so far, from getrusage(RUSAGE_SELF); 0 if the call fails.
func ProcessCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
