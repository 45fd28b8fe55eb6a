package pbx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/sip"
	"repro/internal/transport"
)

// callRig is cmd/pbxd's wiring in one process (ListenWire on loopback)
// with the generator pair uac/uas registered at it.
type callRig struct {
	*Wire
	uac *sip.Phone
}

func newCallRig(t *testing.T) *callRig {
	t.Helper()
	clock := transport.NewRealClock()
	dir := directory.New()
	dir.AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	dir.AddUser(directory.User{Username: "uas", Password: "pw-uas"})
	w, err := ListenWire("127.0.0.1:0", 1, dir, Config{
		RelayRTP: true, RemoteMediaClocks: true, RTPPortBase: nextPortBase(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &callRig{Wire: w}

	regOK := make(chan bool, 2)
	mk := func(user string) *sip.Phone {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		phone := sip.NewPhone(sip.NewEndpoint(tr, clock), sip.PhoneConfig{
			User: user, Password: "pw-" + user, Proxy: w.Listener.LocalAddr(), MediaPort: nextPortBase(),
		})
		t.Cleanup(func() { phone.Endpoint().Close() })
		phone.Register(time.Hour, func(ok bool) { regOK <- ok })
		return phone
	}
	r.uac = mk("uac")
	mk("uas") // answers every call at once
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
	return r
}

// zeroHoldCalls keeps outstanding zero-hold calls in flight — BYE
// straight after the ACK, each call's end placing the next — until more
// reports false, and returns when the last one has ended. ended is
// called with every call as it ends.
func (r *callRig) zeroHoldCalls(outstanding int, more func() bool, ended func(*sip.Call)) {
	var wg sync.WaitGroup
	var place func()
	place = func() {
		if !more() {
			wg.Done()
			return
		}
		r.uac.InviteWithHandlers("uas", nil,
			func(c *sip.Call) { r.uac.Hangup(c) },
			func(c *sip.Call) {
				ended(c)
				place()
			})
	}
	for i := 0; i < outstanding; i++ {
		wg.Add(1)
		place()
	}
	wg.Wait()
}

// close shuts the server side down and checks that every pooled buffer
// came home.
func (r *callRig) close(t *testing.T) {
	t.Helper()
	if err := r.Close(); err != nil {
		t.Errorf("wire close: %v", err)
	}
	if gets, puts := r.Listener.PoolStats(); gets != puts {
		t.Errorf("listener pool leak: gets=%d puts=%d", gets, puts)
	}
	if gets, puts := r.Legs.PoolStats(); gets != puts {
		t.Errorf("leg pool leak: gets=%d puts=%d", gets, puts)
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // finalizers and sweep of the first cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkHeapPerCall fails if the live heap grew by more than 16 KB for
// each of the calls whose transactions still linger — server, listener
// and both phones together. Relay slots pinned until the linger ends
// (256 KB a call) are sixteen times that.
func checkHeapPerCall(t *testing.T, before uint64, calls int64) {
	t.Helper()
	const perCall = 16 << 10
	grown := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew %d KB over %d lingering calls", grown>>10, calls)
	if grown > calls*perCall {
		t.Errorf("live heap grew %d KB over %d lingering calls (%d KB each, want ≤ %d)",
			grown>>10, calls, grown>>10/calls, perCall>>10)
	}
}

// TestBackToBackCallsReuseLegsAndPinNothing places 200 zero-hold calls
// one after the other over real UDP. The port numbers pbx recycles find
// their sockets parked, so almost nothing is bound; and while every
// call's transactions still linger, none of them holds on to its
// bridge, relay or buffers.
func TestBackToBackCallsReuseLegsAndPinNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const calls = 200
	r := newCallRig(t)
	before := liveHeap()
	start := time.Now()
	placed, completed := 0, 0
	r.zeroHoldCalls(1,
		func() bool { placed++; return placed <= calls },
		func(c *sip.Call) {
			if c.Cause() == sip.EndCompleted {
				completed++
			}
		})
	if completed != calls {
		t.Fatalf("%d of %d calls completed", completed, calls)
	}
	checkHeapPerCall(t, before, calls)
	if took := time.Since(start); took >= sip.CompletedLinger {
		t.Skipf("calls took %v: the linger ran out before the heap was read", took)
	}
	if n := r.Server.ActiveTransactions(); n < calls {
		t.Errorf("only %d transactions linger; the heap bound above proves nothing", n)
	}

	st := r.Legs.Stats()
	// A call's BYE is answered before its relay is released, so the
	// next INVITE can overtake the release and bind a second pair.
	if st.Binds > 4 || st.Binds+st.Reuses != 2*calls {
		t.Errorf("leg pool: %+v, want %d legs from at most 4 binds", st, 2*calls)
	}
	r.close(t)
}

// TestCallsSmoke is about five seconds of closed-loop zero-hold calls
// against the pbxd wiring, plain in `make test` and under the detector
// in `make race`. A call must cost the
// same whether it is the first or the ten-thousandth, and leave nothing
// behind: the rate holds, the heap stays small (under -race on two
// vCPUs, below 64 MB in all; the bound is per call so that a faster
// host, which leaves more calls lingering, passes too), and channels,
// call spans, pooled buffers and — once the linger has run out —
// transactions all return to zero.
func TestCallsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const (
		outstanding = 8
		window      = 4500 * time.Millisecond
	)
	r := newCallRig(t)
	before := liveHeap()
	start := time.Now()
	var thirds [3]atomic.Int64
	var failed atomic.Int64
	r.zeroHoldCalls(outstanding,
		func() bool { return time.Since(start) < window },
		func(c *sip.Call) {
			if c.Cause() != sip.EndCompleted {
				failed.Add(1)
				return
			}
			if i := int(time.Since(start) * 3 / window); i < 3 {
				thirds[i].Add(1)
			}
		})
	first, last := thirds[0].Load(), thirds[2].Load()
	t.Logf("completed per third: %d %d %d", first, thirds[1].Load(), last)
	if failed.Load() != 0 {
		t.Errorf("%d calls did not complete", failed.Load())
	}
	if first == 0 || float64(last) < 0.7*float64(first) {
		t.Errorf("rate decayed: %d calls in the last third against %d in the first", last, first)
	}
	checkHeapPerCall(t, before, first+thirds[1].Load()+last)

	// The far leg's BYE transaction ends a moment after the last call.
	deadline := time.Now().Add(2 * time.Second)
	for r.Server.ActiveChannels() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := r.Server.ActiveChannels(); n != 0 {
		t.Errorf("%d channels still held", n)
	}
	if c := r.Server.CountersSnapshot(); c.Ended() != c.Attempts {
		t.Errorf("%d attempts, %d outcomes: calls still open", c.Attempts, c.Ended())
	}
	deadline = time.Now().Add(sip.CompletedLinger + 3*time.Second)
	for r.Server.ActiveTransactions() != 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if tx, idx := r.Server.ActiveTransactions(), r.Server.UnackedInvites(); tx != 0 || idx != 0 {
		t.Errorf("after the linger: %d transactions, %d un-ACKed INVITEs indexed", tx, idx)
	}
	r.close(t)
}
