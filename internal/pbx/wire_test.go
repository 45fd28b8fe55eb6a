package pbx

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/sipp"
	"repro/internal/transport"
)

// TestWireRunsNoModel: real sockets run no CPU model. At 40 attempts/s
// the paper's Xeon model would pass its 45 % knee at the first
// per-second sample and pin 100 % from the second — dropping relayed
// media and pushing the ladder up its rungs on pressure 1.0. pbxd's
// relay must forward every packet, the ladder (on, at its default
// thresholds) must stay at normal, and the CPU band must read nothing.
// A scraper reads every family while the calls come and go, as
// /metrics does: the relay's packet count, read from the live relays
// without their locks, never falls, and it ends where Counters does.
func TestWireRunsNoModel(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	dir := directory.New()
	for _, u := range []string{"uac", "uas"} {
		if err := dir.AddUser(directory.User{Username: u, Password: "pw-" + u}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := ListenWire("127.0.0.1:0", 1, dir, Config{RelayRTP: true, RTPPortBase: nextPortBase(), Seed: 7,
		Degradation: &DegradationConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	listen := func(addr string) (transport.Transport, error) {
		return transport.ListenUDPConfig(addr, transport.UDPConfig{DisableBatch: true})
	}
	gen, err := sipp.New(transport.NewRealClock(), listen,
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: nextPortBase()},
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: nextPortBase()}, w.Listener.LocalAddr(),
		sipp.Config{Rate: 40, Window: 6 * time.Second, Hold: 300 * time.Millisecond,
			Media: sipp.MediaPacketized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	pkts := w.Registry.ValueFunc(mRelayPkts)
	stop, fell := make(chan struct{}), make(chan string, 1)
	go func() {
		defer close(fell)
		for last := 0.0; ; time.Sleep(time.Millisecond) {
			select {
			case <-stop:
				return
			default:
			}
			w.Registry.Snapshot()
			v := pkts()
			if v < last {
				fell <- fmt.Sprintf("%s fell from %v to %v", mRelayPkts, last, v)
				return
			}
			last = v
		}
	}()
	stopScraper := sync.OnceValue(func() string { close(stop); return <-fell })
	t.Cleanup(func() { stopScraper() })

	done := make(chan error, 1)
	gen.Start(func(_ sipp.Results, err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(40 * time.Second):
		t.Fatal("generator did not finish")
	}
	if err := gen.Close(); err != nil {
		t.Errorf("generator close: %v", err)
	}
	if msg := stopScraper(); msg != "" {
		t.Error(msg)
	}
	if err := w.Close(); err != nil {
		t.Errorf("wire close: %v", err)
	}

	c := w.Server.CountersSnapshot()
	t.Logf("%d attempts, %d relayed, %d dropped", c.Attempts, c.RelayedPackets, c.DroppedPackets)
	if c.RelayedPackets == 0 {
		t.Fatal("no RTP crossed the relay")
	}
	if got := pkts(); got != float64(c.RelayedPackets) {
		t.Errorf("%s = %v, Counters.RelayedPackets = %d", mRelayPkts, got, c.RelayedPackets)
	}
	if dropped := w.Registry.Snapshot().Scalar(mRelayDrops); c.DroppedPackets != 0 || dropped != 0 {
		t.Errorf("relay dropped %d packets (%s = %v) with no CPU model", c.DroppedPackets, mRelayDrops, dropped)
	}
	for _, tr := range w.Server.DegradationTimeline() {
		t.Errorf("ladder moved %v → %v at %v on pressure %.2f", tr.From, tr.To, tr.At, tr.Pressure)
	}
	if lo, mean, hi := w.Server.CPUBand(); lo != 0 || mean != 0 || hi != 0 {
		t.Errorf("CPU band [%.1f %.1f %.1f]%%, want nothing from a server with no model", lo, mean, hi)
	}
}
