package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
)

func TestSimClock(t *testing.T) {
	sched := netsim.NewScheduler()
	clock := SimClock{Sched: sched}
	if clock.Now() != 0 {
		t.Errorf("initial now = %v", clock.Now())
	}
	fired := time.Duration(-1)
	clock.AfterFunc(7*time.Millisecond, func() { fired = clock.Now() })
	sched.Run(time.Second)
	if fired != 7*time.Millisecond {
		t.Errorf("fired at %v", fired)
	}
}

func TestSimClockTimerStop(t *testing.T) {
	sched := netsim.NewScheduler()
	clock := SimClock{Sched: sched}
	fired := false
	tm := clock.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop returned false")
	}
	sched.Run(time.Second)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestSimTransportRoundTrip(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	a := NewSim(net, "hostA:5060")
	b := NewSim(net, "hostB:5060")
	var gotSrc string
	var gotData []byte
	b.SetReceiver(func(src string, data []byte) { gotSrc, gotData = src, data })
	a.Send("hostB:5060", []byte("hello"))
	sched.Run(time.Second)
	if gotSrc != "hostA:5060" || string(gotData) != "hello" {
		t.Errorf("got %q from %q", gotData, gotSrc)
	}
	if a.LocalAddr() != "hostA:5060" {
		t.Errorf("local addr %q", a.LocalAddr())
	}
}

func TestSimTransportInvalidDestinationDropped(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	a := NewSim(net, "hostA:5060")
	a.Send("not-an-address", []byte("x")) // must not panic
	a.Send("host:-1", []byte("x"))
	sched.Run(time.Second)
}

func TestSimTransportBadBindPanics(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("bad bind address did not panic")
		}
	}()
	NewSim(net, "no-port")
}

func TestSimTransportClose(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	a := NewSim(net, "hostA:5060")
	b := NewSim(net, "hostB:5060")
	got := 0
	b.SetReceiver(func(string, []byte) { got++ })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send("hostB:5060", []byte("x"))
	sched.Run(time.Second)
	if got != 0 {
		t.Errorf("closed transport received %d", got)
	}
}

// TestSimTransportSwitchesRoute checks the one-entry route cache: a
// transport sending A → B → A, with an invalid destination in between,
// delivers every packet to the port it named.
func TestSimTransportSwitchesRoute(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(1))
	src := NewSim(net, "hostS:5060")
	got := map[string][]string{}
	for _, addr := range []string{"hostA:5060", "hostB:7000"} {
		addr := addr
		NewSim(net, addr).SetReceiver(func(from string, data []byte) {
			got[addr] = append(got[addr], string(data))
			if from != "hostS:5060" {
				t.Errorf("%s: source %q", addr, from)
			}
		})
	}
	for i, dst := range []string{"hostA:5060", "hostB:7000", "bad", "hostA:5060", "hostA:5060", "", "hostB:7000"} {
		src.Send(dst, []byte{'0' + byte(i)})
		sched.Run(sched.Now() + 10*time.Millisecond)
	}
	if a, b := strings.Join(got["hostA:5060"], ","), strings.Join(got["hostB:7000"], ","); a != "0,3,4" || b != "1,6" {
		t.Errorf("A got %q, B got %q; want \"0,3,4\" and \"1,6\"", a, b)
	}
	if net.NoRoute() != 0 {
		t.Errorf("NoRoute = %d, want 0", net.NoRoute())
	}
}

func TestRealClockMonotone(t *testing.T) {
	clock := NewRealClock()
	a := clock.Now()
	time.Sleep(5 * time.Millisecond)
	b := clock.Now()
	if b <= a {
		t.Errorf("clock not advancing: %v then %v", a, b)
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	clock := NewRealClock()
	done := make(chan struct{})
	clock.AfterFunc(5*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestRealClockTimerStop(t *testing.T) {
	clock := NewRealClock()
	fired := make(chan struct{}, 1)
	tm := clock.AfterFunc(30*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Error("Stop returned false")
	}
	select {
	case <-fired:
		t.Error("stopped timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan string, 1)
	b.SetReceiver(func(src string, data []byte) { got <- string(data) })
	a.Send(b.LocalAddr(), []byte("ping"))
	select {
	case msg := <-got:
		if msg != "ping" {
			t.Errorf("got %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

func TestUDPTransportReceiverOwnership(t *testing.T) {
	// The UDP transport follows the netsim packet-pool contract: data
	// is valid (and correct) during the Receiver call, and the buffer
	// may be reused afterwards — receivers copy what they keep.
	a, _ := ListenUDP("127.0.0.1:0")
	defer a.Close()
	b, _ := ListenUDP("127.0.0.1:0")
	defer b.Close()
	copies := make(chan string, 2)
	b.SetReceiver(func(src string, data []byte) { copies <- string(data) })
	a.Send(b.LocalAddr(), []byte("first"))
	if got := <-copies; got != "first" {
		t.Errorf("first datagram = %q", got)
	}
	a.Send(b.LocalAddr(), []byte("secnd"))
	if got := <-copies; got != "secnd" {
		t.Errorf("second datagram = %q", got)
	}
}

func TestUDPTransportCloseStopsReads(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Sending after close must not panic (datagram semantics).
	a.Send("127.0.0.1:9", []byte("x"))
}

func TestUDPTransportBadAddr(t *testing.T) {
	if _, err := ListenUDP("definitely not an address"); err == nil {
		t.Error("bad listen address accepted")
	}
	a, _ := ListenUDP("127.0.0.1:0")
	defer a.Close()
	a.Send("bad destination", []byte("x")) // dropped silently
}
