package pbx

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/sipp"
	"repro/internal/transport"
)

// TestWireModelDropsNoMedia: on real sockets the CPU model does not
// drop media. At 40 attempts/s its attempt term alone passes the
// default 45 % knee at the first per-second sample and pins it at
// 100 % from the second, where the simulated relay would drop 4 % of
// its packets; pbxd's relay must forward every one, while
// pbx_cpu_model_percent still shows the model past its knee.
func TestWireModelDropsNoMedia(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	dir := directory.New()
	for _, u := range []string{"uac", "uas"} {
		if err := dir.AddUser(directory.User{Username: u, Password: "pw-" + u}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := ListenWire("127.0.0.1:0", 1, dir, Config{RelayRTP: true, RTPPortBase: nextPortBase(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	listen := func(addr string) (transport.Transport, error) {
		return transport.ListenUDPConfig(addr, transport.UDPConfig{DisableBatch: true})
	}
	gen, err := sipp.New(transport.NewRealClock(), listen,
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: nextPortBase()},
		sipp.Bind{Addr: "127.0.0.1:0", MediaPort: nextPortBase()}, w.Listener.LocalAddr(),
		sipp.Config{Rate: 40, Window: 5 * time.Second, Hold: 300 * time.Millisecond,
			Media: sipp.MediaPacketized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	model := w.Registry.ValueFunc(mCPUModelPercent)
	done := make(chan error, 1)
	gen.Start(func(_ sipp.Results, err error) { done <- err })
	var peak float64
	poll := time.NewTicker(100 * time.Millisecond)
	defer poll.Stop()
	timeout := time.After(40 * time.Second)
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-poll.C:
			peak = max(peak, model())
		case <-timeout:
			t.Fatal("generator did not finish")
		}
	}
	if err := gen.Close(); err != nil {
		t.Errorf("generator close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("wire close: %v", err)
	}

	c := w.Server.CountersSnapshot()
	t.Logf("model peak %.1f%%, %d relayed, %d dropped", peak, c.RelayedPackets, c.DroppedPackets)
	if peak <= 45 {
		t.Errorf("model peaked at %.1f%%, never past the 45%% knee: the load is too light to test the drop", peak)
	}
	if c.RelayedPackets == 0 {
		t.Fatal("no RTP crossed the relay")
	}
	if dropped := w.Registry.Snapshot().Scalar(mRelayDrops); c.DroppedPackets != 0 || dropped != 0 {
		t.Errorf("relay dropped %d packets (%s = %v) on the CPU model's word", c.DroppedPackets, mRelayDrops, dropped)
	}
}
