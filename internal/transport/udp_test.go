package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// udpVariants returns the configurations every wire-path test runs
// under: the batched syscall path (where the platform has one) and the
// portable fallback. Both must behave identically at the Transport
// interface.
func udpVariants() map[string]UDPConfig {
	v := map[string]UDPConfig{"fallback": {DisableBatch: true}}
	if batchCapable {
		v["batched"] = UDPConfig{}
	}
	return v
}

// TestUDPVariantsRoundTrip drives varied-size datagrams both ways
// through each read-loop variant and checks payload integrity and
// source-address formatting — the batched decode path (raw sockaddr →
// netip → interned string) must be indistinguishable from the
// portable one.
func TestUDPVariantsRoundTrip(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			a, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			if batchCapable && !cfg.DisableBatch && !b.Batched() {
				t.Fatal("batched transport fell back unexpectedly")
			}

			// b echoes every datagram back to its source.
			b.SetReceiver(func(src string, data []byte) {
				if src != a.LocalAddr() {
					t.Errorf("src = %q, want %q", src, a.LocalAddr())
				}
				b.Send(src, data)
			})
			echoed := make(chan string, 64)
			a.SetReceiver(func(src string, data []byte) {
				if src != b.LocalAddr() {
					t.Errorf("echo src = %q, want %q", src, b.LocalAddr())
				}
				echoed <- string(data)
			})

			const n = 50
			want := make(map[string]bool, n)
			for i := 0; i < n; i++ {
				msg := fmt.Sprintf("datagram-%03d-%s", i, string(make([]byte, i*7%512)))
				want[msg] = true
				a.Send(b.LocalAddr(), []byte(msg))
			}
			for i := 0; i < n; i++ {
				select {
				case msg := <-echoed:
					if !want[msg] {
						t.Fatalf("unexpected echo %q", msg)
					}
					delete(want, msg)
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d/%d echoes arrived", i, n)
				}
			}
		})
	}
}

// TestQueueSendIsSend pins the BatchSender contract the wire
// transports keep: QueueSend sends at once, with no Flush, and Flush
// sends nothing — on every read-loop variant and on ShardedUDP.
func TestQueueSendIsSend(t *testing.T) {
	type queueSender interface {
		Transport
		BatchSender
		StatsSource
	}
	senders := map[string]func() (queueSender, error){
		// One shard, as pbxd runs its listener by default.
		"sharded": func() (queueSender, error) { return ListenUDPSharded("127.0.0.1:0", 1, UDPConfig{}) },
	}
	for name, cfg := range udpVariants() {
		cfg := cfg
		senders[name] = func() (queueSender, error) { return ListenUDPConfig("127.0.0.1:0", cfg) }
	}
	for name, listen := range senders {
		t.Run(name, func(t *testing.T) {
			a, err := listen()
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			var got atomic.Uint64
			b.SetReceiver(func(string, []byte) { got.Add(1) })
			const n = 24
			for i := 0; i < n; i++ {
				a.QueueSend(b.LocalAddr(), []byte("queued"))
			}
			waitFor(t, "the queued datagrams without a Flush", func() bool { return got.Load() == n })
			a.Flush()
			if st := a.Stats(); st.TxPackets != n {
				t.Errorf("TxPackets = %d after Flush, want %d", st.TxPackets, n)
			}
		})
	}
}

// TestUDPPoolInvariantConcurrent hammers one transport pair with
// concurrent sends both ways while both read loops run, then closes
// everything and checks the buffer pool's gets==puts invariant — the
// transport equivalent of the netsim PoolStats check, meaningful
// chiefly under -race. The batch-end hooks must have run.
func TestUDPPoolInvariantConcurrent(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			a, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}

			var rx, ends atomic.Uint64
			sink := func(string, []byte) { rx.Add(1) }
			a.SetReceiver(sink)
			b.SetReceiver(sink)
			a.SetBatchEnd(func() { ends.Add(1) })
			b.SetBatchEnd(func() { ends.Add(1) })

			const workers = 4
			const perWorker = 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					payload := []byte("pool-invariant-payload")
					for i := 0; i < perWorker; i++ {
						if i%2 == 0 {
							a.Send(b.LocalAddr(), payload)
						} else {
							b.Send(a.LocalAddr(), payload)
						}
					}
				}(w)
			}
			wg.Wait()
			// Give the read loops a beat to drain what made it through.
			time.Sleep(100 * time.Millisecond)

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			for name, tr := range map[string]*UDPTransport{"a": a, "b": b} {
				gets, puts := tr.PoolStats()
				if gets != puts {
					t.Errorf("%s pool leak: gets=%d puts=%d", name, gets, puts)
				}
			}
			if rx.Load() == 0 {
				t.Error("no datagrams delivered during the soak")
			}
			if ends.Load() == 0 {
				t.Error("no batch-end hook ran during the soak")
			}
		})
	}
}

// TestShardedUDP binds multiple SO_REUSEPORT shards on one port and
// checks that traffic from many distinct sources is delivered exactly
// once, that replies work from any shard, and that the shared pool
// balances after close.
func TestShardedUDP(t *testing.T) {
	const shards = 3
	g, err := ListenUDPSharded("127.0.0.1:0", shards, UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reusePortAvailable {
		if g.NumShards() != 1 {
			t.Fatalf("NumShards = %d, want 1 without SO_REUSEPORT", g.NumShards())
		}
	} else if g.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", g.NumShards(), shards)
	}

	var rx, ends atomic.Uint64
	g.SetReceiver(func(src string, data []byte) {
		rx.Add(1)
		g.Send(src, data) // echo
	})
	g.SetBatchEnd(func() { ends.Add(1) })

	// Many distinct client sockets, so the kernel's 4-tuple hash has
	// flows to spread across shards.
	const clients = 8
	const perClient = 20
	var echoes atomic.Uint64
	var cls []*UDPTransport
	for c := 0; c < clients; c++ {
		cl, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetReceiver(func(string, []byte) { echoes.Add(1) })
		cls = append(cls, cl)
	}
	for i := 0; i < perClient; i++ {
		for _, cl := range cls {
			cl.Send(g.LocalAddr(), []byte("sharded"))
		}
	}
	want := uint64(clients * perClient)
	deadline := time.Now().Add(5 * time.Second)
	for echoes.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if echoes.Load() != want {
		t.Fatalf("echoes = %d, want %d (rx=%d)", echoes.Load(), want, rx.Load())
	}
	if st := g.Stats(); st.RxPackets != want || st.TxPackets != want {
		t.Errorf("group stats %+v, want rx=tx=%d", st, want)
	}
	var perShard uint64
	for i := 0; i < g.NumShards(); i++ {
		perShard += g.ShardStats(i).RxPackets
	}
	if perShard != want {
		t.Errorf("shards received %d between them, want %d", perShard, want)
	}
	if ends.Load() == 0 {
		t.Error("no shard ran the batch-end hook")
	}
	if g.Batched() != batchCapable {
		t.Errorf("Batched() = %v on a platform where batchCapable = %v", g.Batched(), batchCapable)
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	gets, puts := g.PoolStats()
	if gets != puts {
		t.Errorf("shared pool leak: gets=%d puts=%d", gets, puts)
	}
}

// TestUDPSendSteadyStateAllocs pins the 0 allocs/op contract on the
// send hot path once the destination is cached.
func TestUDPSendSteadyStateAllocs(t *testing.T) {
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

	dst := b.LocalAddr()
	payload := make([]byte, 172)
	a.Send(dst, payload) // prime the addr cache
	if n := testing.AllocsPerRun(100, func() { a.Send(dst, payload) }); n > 0 {
		t.Errorf("Send allocates %.1f per op in steady state", n)
	}
}

// readPaths returns a receiving socket on every read path: the two
// read-loop variants and a leg of a LegPool. truncated reads the
// path's RxTruncated counter.
func readPaths() map[string]func(t *testing.T) (rx Transport, truncated func() uint64, done func()) {
	paths := map[string]func(*testing.T) (Transport, func() uint64, func()){
		"pool": func(t *testing.T) (Transport, func() uint64, func()) {
			p := NewLegPool("127.0.0.1")
			leg, _ := openLeg(t, p)
			return leg, func() uint64 { return p.Stats().RxTruncated }, func() { closePool(t, p) }
		},
	}
	for name, cfg := range udpVariants() {
		cfg := cfg
		paths[name] = func(t *testing.T) (Transport, func() uint64, func()) {
			tr, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return tr, func() uint64 { return tr.Stats().RxTruncated }, func() { tr.Close() }
		}
	}
	return paths
}

// TestReadPathsDropTruncated: a datagram that fills MaxDatagram arrives
// whole; one byte more and it is dropped and counted once, not
// delivered cut short. Delivery stays allocation-free.
func TestReadPathsDropTruncated(t *testing.T) {
	for name, open := range readPaths() {
		t.Run(name, func(t *testing.T) {
			rx, truncated, done := open(t)
			defer done()
			tx, err := ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			got := make(chan int, 4)
			rx.SetReceiver(func(_ string, data []byte) { got <- len(data) })
			recv := func() int {
				select {
				case n := <-got:
					return n
				case <-time.After(5 * time.Second):
					t.Fatal("nothing delivered")
					return 0
				}
			}

			dst := rx.LocalAddr()
			tx.Send(dst, make([]byte, MaxDatagram))
			if n := recv(); n != MaxDatagram {
				t.Errorf("%d-byte datagram arrived as %d bytes", MaxDatagram, n)
			}
			tx.Send(dst, make([]byte, MaxDatagram+1))
			tx.Send(dst, []byte("after")) // datagrams arrive in order on loopback
			if n := recv(); n != len("after") {
				t.Errorf("%d-byte datagram delivered as %d bytes", MaxDatagram+1, n)
			}
			if n := truncated(); n != 1 {
				t.Errorf("RxTruncated = %d, want 1", n)
			}

			payload := make([]byte, 172)
			if n := testing.AllocsPerRun(100, func() {
				tx.Send(dst, payload)
				<-got
			}); n > 0 {
				t.Errorf("a delivery allocates %.1f per datagram", n)
			}
		})
	}
}

// TestBufPool pins the pool's accounting: recycling, the foreign-
// buffer guard, and the gets==puts invariant.
func TestBufPool(t *testing.T) {
	p := NewBufPool(64)
	b1 := p.Get()
	if len(b1) != 64 {
		t.Fatalf("len = %d", len(b1))
	}
	p.Put(b1)
	b2 := p.Get()
	if &b1[0] != &b2[0] {
		t.Error("pool did not recycle the buffer")
	}
	p.Put(b2)
	p.Put(make([]byte, 8)) // foreign: must be rejected, not counted
	gets, puts := p.Stats()
	if gets != 2 || puts != 2 {
		t.Errorf("gets=%d puts=%d, want 2/2", gets, puts)
	}
}

// TestAddrCache pins interning: parse-once sends, source strings
// shared across packets, and 4-in-6 normalization.
func TestAddrCache(t *testing.T) {
	c := newAddrCache()
	ap, ok := c.toAddrPort("127.0.0.1:5060")
	if !ok || ap.String() != "127.0.0.1:5060" {
		t.Fatalf("toAddrPort: %v %v", ap, ok)
	}
	s1 := c.intern(ap)
	s2 := c.intern(ap)
	if s1 != "127.0.0.1:5060" {
		t.Errorf("intern = %q", s1)
	}
	// Same backing string, not merely equal.
	if &[]byte(s1)[0] == nil || s1 != s2 {
		t.Errorf("intern not stable")
	}
	// Interning primes the forward direction.
	if _, ok := c.fwd[s1]; !ok {
		t.Error("intern did not prime the send path")
	}
	if _, ok := c.toAddrPort("not an address"); ok {
		t.Error("malformed destination resolved")
	}
}
