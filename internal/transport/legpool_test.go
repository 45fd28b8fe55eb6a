package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openLeg binds a fresh leg on an ephemeral port and returns it with
// the port it is parked under.
func openLeg(t *testing.T, p *LegPool) (*UDPTransport, int) {
	t.Helper()
	tr, err := p.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	leg := tr.(*UDPTransport)
	return leg, leg.conn.LocalAddr().(*net.UDPAddr).Port
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

// TestLegPoolParkedDatagramsAreDropped: what arrives at a parked port
// is read and dropped by the parked socket's own read loop, so the next
// owner of the port starts with a clean socket — the same socket.
func TestLegPoolParkedDatagramsAreDropped(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	sender, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	leg, port := openLeg(t, p)
	var first atomic.Uint64
	leg.SetReceiver(func(string, []byte) { first.Add(1) })
	leg.Send(sender.LocalAddr(), []byte("warm")) // the first owner's own traffic
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
	waitFor(t, "the parked socket to drain", func() bool { return leg.Stats().RxPackets >= stale })

	tr, err := p.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	if tr.(*UDPTransport) != leg {
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
	if st := p.Stats(); st.Binds != 1 || st.Reuses != 1 || st.Parked != 0 || st.OverflowCloses != 0 {
		t.Errorf("stats = %+v, want 1 bind, 1 reuse, nothing parked", st)
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
		tr.(BatchEndNotifier).SetBatchEnd(func() {
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

// TestLegPoolParkDropsSendTail: datagrams queued but not flushed when
// the leg is released are dropped and counted, as a closing send queue
// does, and never leave on the next owner's flush.
func TestLegPoolParkDropsSendTail(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	sink, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	got := make(chan string, 8)
	sink.SetReceiver(func(_ string, data []byte) { got <- string(data) })

	leg, port := openLeg(t, p)
	if !leg.Batched() {
		t.Skip("no send queue on this platform")
	}
	for i := 0; i < 3; i++ {
		leg.QueueSend(sink.LocalAddr(), []byte("tail"))
	}
	leg.Close()
	if st := leg.Stats(); st.TxDropped != 3 || st.TxPackets != 0 {
		t.Errorf("after park: TxDropped=%d TxPackets=%d, want 3 and 0", st.TxDropped, st.TxPackets)
	}

	tr, err := p.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	bs := tr.(BatchSender)
	bs.QueueSend(sink.LocalAddr(), []byte("next"))
	bs.Flush()
	select {
	case msg := <-got:
		if msg != "next" {
			t.Errorf("sink received %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reused leg's flush sent nothing")
	}
	tr.Close()
	time.Sleep(10 * time.Millisecond)
	if n := len(got); n != 0 {
		t.Errorf("%d datagrams of the dropped tail were sent after all", n)
	}
}

// TestLegPoolBoundAndClose: the pool keeps at most maxParkedLegs idle
// sockets and really closes the rest; after Close it binds nothing,
// closes legs still out when they come back, and every buffer is home.
func TestLegPoolBoundAndClose(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	const extra = 3
	legs := make([]*UDPTransport, maxParkedLegs+extra)
	for i := range legs {
		legs[i], _ = openLeg(t, p)
	}
	out, _ := openLeg(t, p) // stays out past the pool's Close
	for _, leg := range legs {
		leg.Close()
	}
	if st := p.Stats(); st.Parked != maxParkedLegs || st.OverflowCloses != extra || st.Binds != uint64(len(legs)+1) {
		t.Errorf("stats = %+v, want %d parked, %d overflow closes, %d binds", st, maxParkedLegs, extra, len(legs)+1)
	}
	for i, leg := range legs {
		closed := false
		select {
		case <-leg.loopDone:
			closed = true
		default:
		}
		if want := i >= maxParkedLegs; closed != want {
			t.Errorf("leg %d: closed = %v, want %v", i, closed, want)
		}
	}
	// A really closed port can be bound again.
	c, err := net.ListenUDP("udp", legs[len(legs)-1].conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Errorf("overflowed leg's port still bound: %v", err)
	} else {
		c.Close()
	}

	if err := p.Close(); err != nil {
		t.Errorf("pool close: %v", err)
	}
	if _, err := p.Listen(0); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Listen on a closed pool: err = %v, want net.ErrClosed", err)
	}
	if gets, puts := p.PoolStats(); gets == puts {
		t.Error("buffers balanced while a leg is still out")
	}
	out.Close()
	select {
	case <-out.loopDone:
	default:
		t.Error("a leg released after the pool's Close was parked, not closed")
	}
	if gets, puts := p.PoolStats(); gets != puts {
		t.Errorf("leg pool leaked buffers: gets=%d puts=%d", gets, puts)
	}
	if st := p.Stats(); st.Parked != 0 || st.OverflowCloses != extra {
		t.Errorf("after Close: stats = %+v", st)
	}
}
