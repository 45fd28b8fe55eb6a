package pbx

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestLoopbackSoak is cmd/pbxd + cmd/sipload in one process: pbxd's
// wiring (ListenWire) on real loopback sockets, seeded Poisson call
// arrivals against a small channel capacity, bidirectional G.711 RTP on
// every established call. Short enough for CI, real enough to exercise
// the wire data plane under `make race`: the SIP
// listener's REUSEPORT shards with their recvmmsg read loops, and the
// leg pool's one epoll loop relaying every call's media with a
// recvmmsg and a sendto a packet. It checks that the loop
// is the only goroutine reading relay legs however many calls are up,
// that it dropped and rejected nothing, that /metrics conserves calls
// (as many outcomes as INVITEs, none open) once the load stops, and
// closes with the buffer-pool ownership invariant on every socket the
// run opened.
func TestLoopbackSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const (
		capacity = 4
		rate     = 15.0 // calls/s
		window   = 2 * time.Second
		hold     = 400 * time.Millisecond
	)
	clock := transport.NewRealClock()
	dir := directory.New()
	dir.AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	dir.AddUser(directory.User{Username: "uas", Password: "pw-uas"})

	// pbxd's own wiring: relay legs come from its pool, whose buffer
	// pool carries the ownership invariant for the loop that reads them.
	w, err := ListenWire("127.0.0.1:0", 2, dir,
		Config{MaxChannels: capacity, RelayRTP: true, RTPPortBase: nextPortBase(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	server, pbxTr, legs := w.Server, w.Listener, w.Legs

	mk := func(user string, mediaPort int) *sip.Phone {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		phone := sip.NewPhone(sip.NewEndpoint(tr, clock), sip.PhoneConfig{
			User: user, Password: "pw-" + user, Proxy: pbxTr.LocalAddr(), MediaPort: mediaPort,
		})
		t.Cleanup(func() { phone.Endpoint().Close() })
		return phone
	}
	uac, uas := mk("uac", nextPortBase()), mk("uas", nextPortBase())

	// Media legs run the portable loop like sipload's phones: one paced
	// 50 pps stream per direction, the leg pool under test on the PBX
	// side.
	// Sessions close at call end so the phone can rebind the port slot
	// for the next call that lands on it.
	var (
		sessMu sync.Mutex
		ssrc   uint32
	)
	startMedia := func(c *sip.Call) *media.Session {
		mi := c.Media()
		tr, err := transport.ListenUDPConfig(
			fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort),
			transport.UDPConfig{DisableBatch: true})
		if err != nil {
			t.Error(err)
			return nil
		}
		sessMu.Lock()
		ssrc++
		s := media.NewSession(tr, clock, media.SessionConfig{
			Remote: fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), SSRC: ssrc,
		})
		sessMu.Unlock()
		s.Start()
		return s
	}
	endMedia := func(s *media.Session) {
		if s != nil {
			s.Stop()
			s.Close()
		}
	}
	uas.Sync(func() {
		uas.OnIncoming = func(c *sip.Call) {
			var s *media.Session
			c.OnEstablished = func(c *sip.Call) { s = startMedia(c) }
			c.OnEnded = func(*sip.Call) { endMedia(s) }
		}
	})

	regOK := make(chan bool, 2)
	uac.Register(time.Hour, func(ok bool) { regOK <- ok })
	uas.Register(time.Hour, func(ok bool) { regOK <- ok })
	for i := 0; i < 2; i++ {
		select {
		case ok := <-regOK:
			if !ok {
				t.Fatal("registration failed")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("registration timeout")
		}
	}

	var (
		mu          sync.Mutex
		attempts    int
		established int
		blocked     int
		failed      int
		wg          sync.WaitGroup
	)
	place := func() {
		var s *media.Session
		uac.InviteWithHandlers("uas", nil, func(c *sip.Call) {
			mu.Lock()
			established++
			mu.Unlock()
			s = startMedia(c)
			// Like a phone, stop talking before hanging up: pbx hands the
			// relay ports to the next call at the BYE, and a packet still
			// in flight would be a stranger's there (and counted as one).
			// The uas hears the BYE before that call's INVITE.
			time.AfterFunc(hold, func() {
				if s != nil {
					s.Stop()
				}
				uac.Hangup(c)
			})
		}, func(c *sip.Call) {
			endMedia(s)
			switch c.Cause() {
			case sip.EndRejected:
				mu.Lock()
				if c.RejectStatus() == sip.StatusServiceUnavailable ||
					c.RejectStatus() == sip.StatusBusyHere {
					blocked++
				} else {
					failed++
				}
				mu.Unlock()
			case sip.EndTimeout:
				mu.Lock()
				failed++
				mu.Unlock()
			}
			wg.Done()
		})
	}

	rng := stats.NewRNG(42)
	deadline := time.Now().Add(window)
	legReaders := -1 // goroutines reading relay legs with every channel busy
	for time.Now().Before(deadline) {
		time.Sleep(time.Duration(rng.Exp(1/rate) * float64(time.Second)))
		if !time.Now().Before(deadline) {
			break
		}
		if legReaders < 0 && server.ActiveChannels() == capacity {
			legReaders = goroutinesIn("transport.(*LegPool).loop", "transport.(*leg).read")
		}
		mu.Lock()
		attempts++
		mu.Unlock()
		wg.Add(1)
		place()
	}
	wg.Wait()
	// Let the uas legs' OnEnded handlers and trailing RTP drain.
	time.Sleep(300 * time.Millisecond)

	mu.Lock()
	t.Logf("soak: attempts=%d established=%d blocked=%d failed=%d", attempts, established, blocked, failed)
	if attempts == 0 || established == 0 {
		t.Fatalf("no load placed: attempts=%d established=%d", attempts, established)
	}
	if failed != 0 {
		t.Errorf("%d calls failed outside admission control", failed)
	}
	if attempts != established+blocked+failed {
		t.Errorf("attempts=%d != established+blocked+failed=%d", attempts, established+blocked+failed)
	}
	pb := float64(blocked) / float64(attempts)
	if pb < 0 || pb > 1 {
		t.Errorf("Pb=%v out of range", pb)
	}
	mu.Unlock()

	// Quiesced: on the server's own /metrics view, every INVITE has its
	// one outcome and no call is open.
	var scrape telemetry.PromIndex
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var buf bytes.Buffer
		if err := w.Registry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := telemetry.ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		scrape = telemetry.IndexSamples(samples)
		if scrape.Sum(mCallsTotal) == scrape.Sum(mInvites) || time.Now().After(deadline) {
			break
		}
	}
	if ended, invites := scrape.Sum(mCallsTotal), scrape.Sum(mInvites); ended != invites || invites == 0 {
		t.Errorf("/metrics: %v outcomes on %s for %v %s", ended, mCallsTotal, invites, mInvites)
	}
	if open := scrape.Sum(mActiveSpans); open != 0 {
		t.Errorf("/metrics: %s = %v at quiesce", mActiveSpans, open)
	}

	// Tear down, then verify the ownership invariant: every buffer the
	// pools handed out came back.
	if err := w.Close(); err != nil {
		t.Errorf("wire close: %v", err)
	}
	c, st := server.CountersSnapshot(), legs.Stats()
	if c.RelayedPackets == 0 {
		t.Error("no RTP crossed the relay")
	}
	if c.RejectedPackets != 0 {
		t.Errorf("the relay rejected %d of the phones' own packets by source", c.RejectedPackets)
	}
	if st.TxDropped != 0 || st.RxPackets < c.RelayedPackets || st.TxPackets < c.RelayedPackets {
		t.Errorf("relay legs: %+v, want no dropped send and at least the %d relayed packets each way", st, c.RelayedPackets)
	}
	if legReaders != 1 && runtime.GOOS == "linux" { // elsewhere every leg has a reader of its own
		t.Errorf("%d goroutines were reading relay legs with %d calls up (-1: never that busy), want the pool's one loop", legReaders, capacity)
	}
	if gets, puts := pbxTr.PoolStats(); gets != puts {
		t.Errorf("pbx pool leak: gets=%d puts=%d", gets, puts)
	}
	if st.Binds == 0 || st.Reuses == 0 {
		t.Errorf("relay legs: %+v, want sockets bound and reused", st)
	}
	if gets, puts := legs.PoolStats(); gets != puts {
		t.Errorf("relay leg pool leak: gets=%d puts=%d", gets, puts)
	}
}

// goroutinesIn counts the goroutines with any of the named functions on
// their stack.
func goroutinesIn(funcs ...string) int {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2) // one stack per goroutine, blank line between
	n := 0
	for _, stack := range strings.Split(buf.String(), "\n\n") {
		for _, fn := range funcs {
			if strings.Contains(stack, fn) {
				n++
				break
			}
		}
	}
	return n
}
