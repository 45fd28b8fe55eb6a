package sipp_test

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
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
// on the wall clock and UDP sockets against pbxd's wiring, with
// capacity channels, on loopback. It returns the generator's books once
// both legs of every call have reported, the server's counters after
// Close, and the SIP books of the server and the two phones.
func wireRun(t *testing.T, cfg sipp.Config, capacity int) (sipp.Results, pbx.Counters, []sip.Stats) {
	t.Helper()
	dir := directory.New()
	if err := rig.AddUsers(dir, "uac", "uas"); err != nil {
		t.Fatal(err)
	}
	w, err := pbx.ListenWire("127.0.0.1:0", 2, dir,
		pbx.Config{MaxChannels: capacity, RelayRTP: true, RTPPortBase: wireRelayPorts, Seed: 7})
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
	res, settled := gen.SettledResults(2 * time.Second)
	if !settled {
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
	caller, callee := gen.SignalingStats()
	return res, w.Server.CountersSnapshot(), []sip.Stats{w.Server.SignalingStats(), caller, callee}
}

// simRun is wireRun over the simulated network, with the same PBX
// configuration.
func simRun(t *testing.T, cfg sipp.Config, capacity int) (sipp.Results, []sip.Stats) {
	t.Helper()
	r := rig.NewSim(1, 0, nil, stats.NewRNG(6), netsim.LinkProfile{Delay: time.Millisecond})
	dir := directory.New()
	if err := rig.AddUsers(dir, "uac", "uas"); err != nil {
		t.Fatal(err)
	}
	server := r.PBX("pbx", dir, pbx.Config{MaxChannels: capacity, RelayRTP: true, Seed: 7})
	gen := r.Generator("sippc", "sipps", server.Addr(), cfg)
	var res *sipp.Results
	gen.Start(func(got sipp.Results, err error) {
		if err != nil {
			t.Error(err)
		}
		res = &got
	})
	if err := r.RunUntil(func() bool { return res != nil }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	caller, callee := gen.SignalingStats()
	return *res, []sip.Stats{server.SignalingStats(), caller, callee}
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
	res, srv, _ := wireRun(t, sipp.Config{
		Rate: 30, Window: 3 * time.Second, Hold: 300 * time.Millisecond,
		Media: sipp.MediaPacketized, RetryMax: 3, RetryBase: 50 * time.Millisecond, Seed: 5,
	}, 2)
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
	wire, _, _ := wireRun(t, cfg, 2)
	sim, _ := simRun(t, cfg, 2)
	if wire.Attempts == 0 || wire.Attempts != sim.Attempts {
		t.Errorf("attempts: %d on the wire, %d in the simulator", wire.Attempts, sim.Attempts)
	}
}

// TestSameTableOnBothSubstrates: below capacity nothing the wall clock
// decides changes a call's messages, so Table I's SIP rows read off the
// server's and the phones' books are the same over loopback UDP and
// over the simulated network for one Config and seed. RTP is left out:
// on the wire the wall clock paces the media. A datagram the wire side
// had to send again (a slow host can outwait Timer A) is logged, and
// then the rows of originals are compared.
func TestSameTableOnBothSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	cfg := sipp.Config{
		Rate: 20, Window: 1500 * time.Millisecond, Hold: 50 * time.Millisecond,
		Media: sipp.MediaPacketized, Seed: 8,
	}
	wireRes, _, wire := wireRun(t, cfg, 16)
	simRes, sim := simRun(t, cfg, 16)
	if wireRes.Established == 0 || wireRes.Blocked+simRes.Blocked != 0 {
		t.Fatalf("want calls set up below capacity: established %d, blocked %d on the wire, %d in the simulator",
			wireRes.Established, wireRes.Blocked, simRes.Blocked)
	}
	wireRow, simRow := monitor.Table(0, wire...), monitor.Table(0, sim...)
	if resent := wireRow.Total - monitor.Table(0, originals(wire)...).Total; resent > 0 {
		t.Logf("the wire side sent %d datagrams again; comparing originals", resent)
		wireRow, simRow = monitor.Table(0, originals(wire)...), monitor.Table(0, originals(sim)...)
	}
	if wireRow != simRow {
		t.Errorf("Table I SIP rows differ:\nwire %+v\nsim  %+v", wireRow, simRow)
	}
}

// originals drops the books' resent tallies.
func originals(books []sip.Stats) []sip.Stats {
	out := make([]sip.Stats, len(books))
	for i, b := range books {
		b.Resent = nil
		out[i] = b
	}
	return out
}

// TestRegisterGeneratorOnTheWire runs the registration generator on
// real sockets against pbxd's wiring: three hundred endpoints sign in,
// refresh once, and re-register in an avalanche, with the endpoint's
// read loop, the refresh timers and the avalanche all entering the
// generator on different goroutines. Every operation is settled and
// counted once, and both of the server's buffer pools balance at Close.
func TestRegisterGeneratorOnTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const n = 300
	dir := directory.New()
	dir.Provision("u", 0, n)
	w, err := pbx.ListenWire("127.0.0.1:0", 2, dir,
		pbx.Config{Registrar: pbx.RegistrarConfig{Enabled: true}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clock := transport.NewRealClock()
	listen := func(addr string) (transport.Transport, error) { return transport.ListenUDP(addr) }
	// Registered within the 300 ms ramp, each binding is refreshed once
	// 0.6 s ± 10 % later; the avalanche at 1 s cancels the second
	// refresh, and its re-registrations leave too little window for a
	// refresh of their own.
	gen, err := sipp.NewRegister(clock, listen, "127.0.0.1:0", w.Listener.LocalAddr(), sipp.RegisterConfig{
		Endpoints: n, Expires: 2 * time.Second, RefreshFraction: 0.3,
		Ramp: 300 * time.Millisecond, Window: 900 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan sipp.RegisterResults, 1)
	gen.Start(func(res sipp.RegisterResults) { done <- res })
	clock.AfterFunc(time.Second, func() { gen.Avalanche(100 * time.Millisecond) })
	var res sipp.RegisterResults
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("generator did not finish")
	}
	t.Logf("wire: %d registers (%d initial, %d refreshes, %d re-registers), %d failed, %d retries, drain %v",
		res.Registers, res.Initial, res.Refreshes, res.Reregisters, res.Failed, res.Retries, res.DrainTime)
	if res.Initial != n || res.Reregisters != n || res.Failed != 0 {
		t.Errorf("want %d initial registrations and %d re-registrations, none failed: %d / %d / %d",
			n, n, res.Initial, res.Reregisters, res.Failed)
	}
	if res.Refreshes == 0 || res.Refreshes > n {
		t.Errorf("%d refreshes of %d bindings, want one each at most and some", res.Refreshes, n)
	}
	if res.Registers != res.Initial+res.Refreshes+res.Reregisters {
		t.Errorf("%d registers != %d+%d+%d", res.Registers, res.Initial, res.Refreshes, res.Reregisters)
	}
	if res.DrainTime <= 0 {
		t.Errorf("avalanche drain %v", res.DrainTime)
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
}
