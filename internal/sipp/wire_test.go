package sipp_test

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/transport"
)

// The wire tests' fixed ports sit between the benchmark's probe windows
// (x000–x599) and below the pbx package's 30100 and up.
const (
	wireRelayPorts  = 28700
	wireCallerPorts = 28800
	wireCalleePorts = 28900
)

// wireRun is cmd/sipload against cmd/pbxd in one process: the generator
// on the wall clock and UDP sockets against pbxd's wiring on loopback.
// It returns the generator's books once both legs of every call have
// reported, and the server's counters after Close.
func wireRun(t *testing.T, cfg sipp.Config) (sipp.Results, pbx.Counters) {
	t.Helper()
	dir := directory.New()
	if err := rig.AddUsers(dir, "uac", "uas"); err != nil {
		t.Fatal(err)
	}
	w, err := pbx.ListenWire("127.0.0.1:0", 2, dir,
		pbx.Config{MaxChannels: 2, RelayRTP: true, RTPPortBase: wireRelayPorts, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	listen := func(addr string) (transport.Transport, error) {
		return transport.ListenUDPConfig(addr, transport.UDPConfig{DisableBatch: true})
	}
	gen, err := sipp.New(transport.NewRealClock(), listen,
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: wireCallerPorts},
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: wireCalleePorts}, w.Listener.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	gen.Start(func(_ sipp.Results, err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(cfg.Window + 30*time.Second):
		t.Fatal("generator did not finish")
	}
	// The callee hears a call's BYE after the caller has its 200, so the
	// last callee reports land after done.
	bothLegs := func(res sipp.Results) bool {
		for _, rec := range res.Records {
			if rec.Established && (rec.CallerMedia.Sent == 0 || rec.CalleeMedia.Sent == 0) {
				return false
			}
		}
		return true
	}
	res := gen.Results()
	for deadline := time.Now().Add(2 * time.Second); !bothLegs(res) && time.Now().Before(deadline); res = gen.Results() {
		time.Sleep(10 * time.Millisecond)
	}
	if !bothLegs(res) {
		t.Error("an established call is missing a leg's media report")
	}

	if err := gen.Close(); err != nil {
		t.Errorf("generator close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("wire close: %v", err)
	}
	if gets, puts := w.Listener.PoolStats(); gets != puts {
		t.Errorf("pbx pool leak: gets=%d puts=%d", gets, puts)
	}
	if gets, puts := w.Legs.PoolStats(); gets != puts {
		t.Errorf("relay leg pool leak: gets=%d puts=%d", gets, puts)
	}
	return res, w.Server.CountersSnapshot()
}

// TestGeneratorOnTheWire runs the generator where `make race` can see
// it on real sockets: timers, two read loops and transaction timeouts
// all enter it, and with retries on, the arrival chain and the retry
// back-off draw from its one RNG on different goroutines. Calls are
// conserved at the generator and across the wire, and every call that
// was set up reports both legs' media whichever leg ended first.
func TestGeneratorOnTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res, srv := wireRun(t, sipp.Config{
		Rate: 30, Window: 3 * time.Second, Hold: 300 * time.Millisecond,
		Media: sipp.MediaPacketized, RetryMax: 3, RetryBase: 50 * time.Millisecond, Seed: 5,
	})
	t.Logf("wire: %d attempts, %d established, %d blocked, %d failed, %d retries, late p99 %v; pbx %d attempts, %d relayed",
		res.Attempts, res.Established, res.Blocked, res.Failed, res.Retries, res.LateP99, srv.Attempts, srv.RelayedPackets)
	if res.Established == 0 || res.Blocked == 0 || res.Retries == 0 {
		t.Errorf("want calls set up, refused and retried at 9 Erlangs on 2 channels: %d / %d / %d",
			res.Established, res.Blocked, res.Retries)
	}
	if res.Attempts != res.Established+res.Blocked+res.Abandoned+res.Failed+res.Throttled {
		t.Errorf("generator: %d attempts != %d+%d+%d+%d+%d", res.Attempts,
			res.Established, res.Blocked, res.Abandoned, res.Failed, res.Throttled)
	}
	if srv.Attempts != uint64(res.Attempts+res.Retries) {
		t.Errorf("pbx saw %d INVITEs, the generator sent %d attempts + %d retries", srv.Attempts, res.Attempts, res.Retries)
	}
	if srv.RelayedPackets == 0 {
		t.Error("no RTP crossed the relay")
	}
}

// TestSameGeneratorOnBothSubstrates: without retries the arrival chain
// is the only draw on the RNG, so one Config and seed place the same
// number of calls over loopback UDP and over the simulated network.
func TestSameGeneratorOnBothSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	cfg := sipp.Config{
		Rate: 40, Window: 1500 * time.Millisecond, Hold: 50 * time.Millisecond,
		Media: sipp.MediaPacketized, Seed: 6,
	}
	wire, _ := wireRun(t, cfg)

	r := rig.NewSim(1, 0, nil, stats.NewRNG(6), netsim.LinkProfile{Delay: time.Millisecond})
	dir := directory.New()
	if err := rig.AddUsers(dir, "uac", "uas"); err != nil {
		t.Fatal(err)
	}
	server := r.PBX("pbx", dir, pbx.Config{MaxChannels: 2, RelayRTP: true, Seed: 7})
	var sim *sipp.Results
	r.Generator("sippc", "sipps", server.Addr(), cfg).Start(func(res sipp.Results, err error) {
		if err != nil {
			t.Error(err)
		}
		sim = &res
	})
	if err := r.RunUntil(func() bool { return sim != nil }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if wire.Attempts == 0 || wire.Attempts != sim.Attempts {
		t.Errorf("attempts: %d on the wire, %d in the simulator", wire.Attempts, sim.Attempts)
	}
}
