package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openLeg binds a fresh leg on an ephemeral port and returns it with
// the port it is parked under.
func openLeg(t *testing.T, p *LegPool) (Transport, int) {
	t.Helper()
	tr, err := p.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.(*leg).port
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// closePool closes p and checks the buffer ownership invariant.
func closePool(t *testing.T, p *LegPool) {
	t.Helper()
	if err := p.Close(); err != nil {
		t.Errorf("pool close: %v", err)
	}
	if gets, puts := p.PoolStats(); gets != puts {
		t.Errorf("leg pool leaked buffers: gets=%d puts=%d", gets, puts)
	}
}

// portFree reports whether nothing is bound to the loopback port.
func portFree(port int) bool {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// TestLegPoolParkedDatagramsAreDropped: what arrives at a parked port
// is read and dropped by the pool's reader, so the next owner of the
// port starts with a clean socket — the same socket.
func TestLegPoolParkedDatagramsAreDropped(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	sender, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	echoed := make(chan string, 1)
	sender.SetReceiver(func(_ string, data []byte) { echoed <- string(data) })

	leg, port := openLeg(t, p)
	var first atomic.Uint64
	leg.SetReceiver(func(string, []byte) { first.Add(1) })
	leg.Send(sender.LocalAddr(), []byte("warm")) // the first owner's own traffic
	select {
	case msg := <-echoed:
		if msg != "warm" {
			t.Errorf("the leg sent %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the leg's Send went nowhere")
	}
	if err := leg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leg.Close(); err != nil { // idempotent, like any Close
		t.Fatal(err)
	}

	const stale = 40
	for i := 0; i < stale; i++ {
		sender.Send(leg.LocalAddr(), []byte("stale"))
	}
	waitFor(t, "the parked socket to drain", func() bool { return p.Stats().RxPackets >= stale })

	tr, err := p.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	if tr != leg {
		t.Fatal("the port was bound afresh instead of reusing the parked socket")
	}
	got := make(chan string, stale+1)
	tr.SetReceiver(func(_ string, data []byte) { got <- string(data) })
	sender.Send(tr.LocalAddr(), []byte("fresh"))
	select {
	case msg := <-got:
		if msg != "fresh" {
			t.Errorf("next owner received %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reused socket is deaf")
	}
	if n := len(got); n != 0 {
		t.Errorf("next owner received %d more datagrams", n)
	}
	if first.Load() != 0 {
		t.Errorf("first owner's receiver saw %d datagrams sent after its Close", first.Load())
	}
	// The reader counts a wake-up's datagrams once it has delivered them.
	waitFor(t, "the reader to count the last datagram", func() bool { return p.Stats().RxPackets > stale })
	st := p.Stats()
	if st.Binds != 1 || st.Reuses != 1 || st.Parked != 0 || st.Open != 1 || st.OverflowCloses != 0 {
		t.Errorf("stats = %+v, want 1 bind, 1 reuse, 1 open, nothing parked", st)
	}
	if st.RxPackets != stale+1 || st.RxWakeups == 0 || st.RxWakeups > st.RxPackets || st.TxPackets != 1 || st.TxDropped != 0 {
		t.Errorf("stats = %+v, want %d datagrams read in at most as many wake-ups, 1 sent, none dropped", st, stale+1)
	}
	tr.Close()
}

// TestLegPoolCloseRacesReadLoop parks and re-acquires one port under a
// datagram flood. Close may not return while its receiver is still
// running, nothing may reach a receiver afterwards, and the socket must
// survive every round.
func TestLegPoolCloseRacesReadLoop(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	sender, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	leg, port := openLeg(t, p)
	addr := leg.LocalAddr()
	leg.Close()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sender.Send(addr, []byte("flood"))
			}
		}
	}()

	const rounds = 200
	var delivered, late atomic.Uint64
	for i := 0; i < rounds; i++ {
		tr, err := p.Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		var closed atomic.Bool
		tr.SetReceiver(func(string, []byte) {
			delivered.Add(1)
			time.Sleep(20 * time.Microsecond) // widen the window Close must wait out
			if closed.Load() {
				late.Add(1)
			}
		})
		time.Sleep(100 * time.Microsecond)
		tr.Close()
		closed.Store(true)
	}
	close(stop)
	flood.Wait()

	if late.Load() != 0 {
		t.Errorf("%d deliveries overlapped or followed their owner's Close", late.Load())
	}
	if delivered.Load() == 0 {
		t.Error("the flood never reached a receiver; the race was not exercised")
	}
	if st := p.Stats(); st.Binds != 1 || st.Reuses != rounds || st.Parked != 1 {
		t.Errorf("stats = %+v, want 1 bind, %d reuses, 1 parked", st, rounds)
	}
}

// TestLegPoolBoundAndClose: the pool keeps at most maxParkedLegs idle
// sockets and really closes the rest; its Close closes every socket,
// the ones still out included, brings every buffer home, and leaves no
// reader behind.
func TestLegPoolBoundAndClose(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewLegPool("127.0.0.1")
	const extra = 3
	legs := make([]Transport, maxParkedLegs+extra)
	ports := make([]int, len(legs))
	for i := range legs {
		legs[i], ports[i] = openLeg(t, p)
	}
	out, outPort := openLeg(t, p) // stays out past the pool's Close
	for _, leg := range legs {
		leg.Close()
	}
	if st := p.Stats(); st.Parked != maxParkedLegs || st.Open != maxParkedLegs+1 || st.OverflowCloses != extra || st.Binds != uint64(len(legs)+1) {
		t.Errorf("stats = %+v, want %d parked, %d open, %d overflow closes, %d binds", st, maxParkedLegs, maxParkedLegs+1, extra, len(legs)+1)
	}
	// A parked port is still bound; a really closed one can be bound again.
	for i, port := range ports {
		if free, want := portFree(port), i >= maxParkedLegs; free != want {
			t.Errorf("leg %d: port free = %v, want %v", i, free, want)
		}
	}

	if err := p.Close(); err != nil {
		t.Errorf("pool close: %v", err)
	}
	if _, err := p.Listen(0); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Listen on a closed pool: err = %v, want net.ErrClosed", err)
	}
	if gets, puts := p.PoolStats(); gets != puts {
		t.Errorf("leg pool leaked buffers: gets=%d puts=%d", gets, puts)
	}
	for _, port := range append(ports[:maxParkedLegs:maxParkedLegs], outPort) {
		if !portFree(port) {
			t.Errorf("port %d still bound after the pool's Close", port)
		}
	}
	// The leg that was out is dead, not dangerous.
	out.Send("127.0.0.1:9", []byte("late"))
	if err := out.Close(); err != nil {
		t.Errorf("closing a leg after its pool: %v", err)
	}
	if st := p.Stats(); st.Parked != 0 || st.Open != 0 || st.OverflowCloses != extra || st.TxDropped != 1 {
		t.Errorf("after Close: stats = %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second pool close: %v", err)
	}
	waitFor(t, "the pool's readers to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestLegPoolSendNeverBlocks: a leg's Send is the relay's transmit path
// and runs on the pool's reader, so it may not wait for anything. A
// peer that never reads costs the sender nothing on loopback (the
// kernel accepts the datagram and drops it at the full receive queue);
// a datagram the kernel refuses is dropped and counted, at once.
func TestLegPoolSendNeverBlocks(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.SetReadBuffer(1) // the kernel's minimum: a couple of datagrams

	leg, _ := openLeg(t, p)
	defer leg.Close()
	const n = 5000
	payload := make([]byte, 1024)
	start := time.Now()
	for i := 0; i < n; i++ {
		leg.Send(peer.LocalAddr().String(), payload)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("%d sends to a deaf peer took %v", n, took)
	}
	st := p.Stats()
	if st.TxPackets+st.TxDropped != n {
		t.Errorf("stats = %+v, want every one of %d sends counted once", st, n)
	}

	leg.Send(peer.LocalAddr().String(), make([]byte, 1<<16)) // EMSGSIZE
	leg.Send("[::1]:9", payload)                             // no route from a v4 socket
	if got := p.Stats().TxDropped - st.TxDropped; got != 2 {
		t.Errorf("an oversized and an unroutable datagram counted %d drops, want 2", got)
	}
}

// TestLegPoolConcurrentUse: Listen, Send from several goroutines,
// SetReceiver and Close on many legs while datagrams arrive, then the
// pool's Close under all of it. The race detector and the buffer
// invariant are the assertions.
func TestLegPoolConcurrentUse(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	sink, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var sunk atomic.Uint64
	sink.SetReceiver(func(string, []byte) { sunk.Add(1) })

	var echoed atomic.Uint64
	var owners sync.WaitGroup
	for g := 0; g < 4; g++ {
		owners.Add(1)
		go func() {
			defer owners.Done()
			port := 0
			for {
				tr, err := p.Listen(port)
				if errors.Is(err, net.ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				port = tr.(*leg).port // next round takes the parked socket back
				tr.SetReceiver(func(src string, data []byte) {
					echoed.Add(1)
					tr.Send(sink.LocalAddr(), data) // what the relay does: send from a receiver
				})
				var senders sync.WaitGroup
				for s := 0; s < 3; s++ {
					senders.Add(1)
					go func() {
						defer senders.Done()
						for i := 0; i < 20; i++ {
							tr.Send(tr.LocalAddr(), []byte("to myself"))
							tr.Send(sink.LocalAddr(), []byte("to the sink"))
						}
					}()
				}
				senders.Wait()
				tr.Close()
			}
		}()
	}
	waitFor(t, "traffic through the legs", func() bool { return echoed.Load() > 500 && sunk.Load() > 500 })
	closePool(t, p)
	owners.Wait()
}

// TestLegPoolIPv6: the host may be a v6 literal; addresses then read
// "[::1]:port" in both directions.
func TestLegPoolIPv6(t *testing.T) {
	p := NewLegPool("::1")
	defer closePool(t, p)
	a, err := p.Listen(0)
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	b, _ := openLeg(t, p)
	from := make(chan string, 1)
	b.SetReceiver(func(src string, _ []byte) { from <- src })
	a.Send(b.LocalAddr(), []byte("six"))
	select {
	case src := <-from:
		if src != a.LocalAddr() {
			t.Errorf("datagram from %s arrived as from %s", a.LocalAddr(), src)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("nothing crossed from %s to %s", a.LocalAddr(), b.LocalAddr())
	}
}
