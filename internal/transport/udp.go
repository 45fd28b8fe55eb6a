package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RealClock implements Clock over the wall clock. Durations are
// measured from the clock's creation so Now is comparable with
// simulated clocks.
type RealClock struct {
	origin time.Time
}

// NewRealClock returns a wall clock with origin now.
func NewRealClock() *RealClock { return &RealClock{origin: time.Now()} }

// Now returns time elapsed since the clock's creation.
func (c *RealClock) Now() time.Duration { return time.Since(c.origin) }

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// AfterFunc delegates to time.AfterFunc.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

// realRearm reuses one time.Timer across firings via Reset.
type realRearm struct{ t *time.Timer }

func (rt *realRearm) Schedule(d time.Duration) { rt.t.Reset(d) }
func (rt *realRearm) Stop() bool               { return rt.t.Stop() }

// NewRearmTimer implements TimerFactory.
func (c *RealClock) NewRearmTimer(fn func()) RearmTimer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return &realRearm{t: t}
}

// MaxDatagram is the receive buffer size. A datagram longer than it is
// dropped and counted (RxTruncated), never delivered cut short. G.711
// RTP frames are far below it, and RFC 3261 §18.1.1 moves any request
// over 1300 bytes off UDP.
const MaxDatagram = 8192

// DefaultBatch is the default number of datagrams moved per recvmmsg
// syscall on the batched path.
const DefaultBatch = 32

// UDPConfig tunes a real-UDP transport. The zero value gives the
// production defaults: batched receive where the platform supports it
// (linux amd64/arm64) and a private buffer pool.
type UDPConfig struct {
	// DisableBatch forces the portable single-datagram read loop even
	// on batch-capable platforms, as a phone with one 50 pps stream
	// has nothing to batch; pbxd leaves it off.
	DisableBatch bool
	// BatchSize is the number of datagrams per recvmmsg (default
	// DefaultBatch). Ignored on the portable path.
	BatchSize int
	// BufferSize is the per-slot receive buffer size (default
	// MaxDatagram). The read loop holds BatchSize such buffers.
	BufferSize int
}

// TransportStats counts datagrams and syscalls through a UDP
// transport. RxBatches counts read syscalls that moved at least one
// datagram, so RxPackets/RxBatches is the achieved inbound batch width
// — 1.0 on the portable path, up to BatchSize under load on the
// batched path. Every send is its own syscall.
type TransportStats struct {
	RxPackets uint64
	RxBatches uint64
	// RxTruncated counts datagrams longer than the receive buffer:
	// dropped, not delivered cut short, and not in RxPackets.
	RxTruncated uint64
	TxPackets   uint64
	// TxDropped counts datagrams abandoned on a send error (UDP
	// semantics: errors are not reported to the caller).
	TxDropped uint64
}

// UDPTransport implements Transport over a real UDP socket. One
// dedicated goroutine runs the read loop; on batch-capable platforms
// it drains the socket with recvmmsg into pooled buffers. Every send
// is one sendto. Inbound data handed to the Receiver follows the
// netsim ownership contract: valid only for the duration of the call.
type UDPTransport struct {
	conn  *net.UDPConn
	local string // conn's address, formatted once at bind
	pool  *BufPool
	addrs *addrCache
	batch int // datagrams per recvmmsg; 0 = portable path

	// mu guards the handlers. The read loop holds it shared while it
	// delivers a batch, so a writer — SetReceiver, SetBatchEnd — returns
	// only once no batch is still being delivered to the handlers it
	// replaced.
	mu       sync.RWMutex
	recv     Receiver
	batchEnd func()

	done      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	rxPackets   atomic.Uint64
	rxBatches   atomic.Uint64
	rxTruncated atomic.Uint64
	txPackets   atomic.Uint64
	txDropped   atomic.Uint64
}

// ListenUDP binds a UDP socket on addr (e.g. "127.0.0.1:5060";
// ":0" picks an ephemeral port) and starts the read loop, with the
// default configuration.
func ListenUDP(addr string) (*UDPTransport, error) {
	return ListenUDPConfig(addr, UDPConfig{})
}

// ListenUDPConfig is ListenUDP with explicit tuning.
func ListenUDPConfig(addr string, cfg UDPConfig) (*UDPTransport, error) {
	return listenUDP(addr, cfg, false, nil, nil)
}

// listenUDP is the shared constructor. reuse requests SO_REUSEPORT
// (sharded listeners); pool and addrs, when non-nil, are shared across
// the shards of one listener group.
func listenUDP(addr string, cfg UDPConfig, reuse bool, pool *BufPool, addrs *addrCache) (*UDPTransport, error) {
	conn, err := listenUDPConn(addr, reuse)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = poolFor(cfg)
	}
	if addrs == nil {
		addrs = newAddrCache()
	}
	t := &UDPTransport{
		conn:     conn,
		local:    conn.LocalAddr().String(),
		pool:     pool,
		addrs:    addrs,
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if batchCapable && !cfg.DisableBatch {
		t.batch = cfg.BatchSize
		if t.batch <= 0 {
			t.batch = DefaultBatch
		}
	}
	go t.run()
	return t, nil
}

// poolFor sizes a buffer pool for cfg.
func poolFor(cfg UDPConfig) *BufPool {
	if cfg.BufferSize > 0 {
		return NewBufPool(cfg.BufferSize)
	}
	return NewBufPool(MaxDatagram)
}

// listenPlainUDP is the portable bind without socket options.
func listenPlainUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", ua)
}

// run owns the read loop for the transport's lifetime.
func (t *UDPTransport) run() {
	defer close(t.loopDone)
	if t.batch > 0 && t.runBatch() {
		return
	}
	t.runFallback()
}

// runFallback is the portable single-datagram read loop. Unlike the
// seed implementation it neither copies the datagram (the Receiver
// contract matches netsim: data is valid only during the call) nor
// formats the source address per packet (sources are interned).
func (t *UDPTransport) runFallback() {
	buf := t.pool.Get()
	defer t.pool.Put(buf)
	for {
		n, _, flags, src, err := t.conn.ReadMsgUDPAddrPort(buf, nil)
		if err != nil {
			if t.closing() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient error on a datagram socket; keep reading.
			continue
		}
		t.rxBatches.Add(1)
		if flags&msgTrunc != 0 {
			t.rxTruncated.Add(1)
			continue
		}
		t.rxPackets.Add(1)
		t.mu.RLock()
		if t.recv != nil {
			t.recv(t.addrs.intern(src), buf[:n])
		}
		if t.batchEnd != nil {
			t.batchEnd()
		}
		t.mu.RUnlock()
	}
}

func (t *UDPTransport) closing() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Send transmits a datagram immediately; resolution or write errors
// are dropped, matching UDP semantics. With the destination cached —
// always, after the first packet either way — the path is
// allocation-free.
func (t *UDPTransport) Send(dst string, data []byte) {
	ap, ok := t.addrs.toAddrPort(dst)
	if !ok {
		return
	}
	if _, err := t.conn.WriteToUDPAddrPort(data, ap); err != nil {
		t.txDropped.Add(1)
		return
	}
	t.txPackets.Add(1)
}

// QueueSend is Send. Part of the BatchSender extension.
func (t *UDPTransport) QueueSend(dst string, data []byte) { t.Send(dst, data) }

// Flush does nothing: QueueSend has already sent. Part of the
// BatchSender extension.
func (t *UDPTransport) Flush() {}

// SetBatchEnd installs fn, invoked by the read loop after each
// delivered inbound batch (after the last Receiver call of the batch).
// Part of the BatchEndNotifier extension.
func (t *UDPTransport) SetBatchEnd(fn func()) {
	t.mu.Lock()
	t.batchEnd = fn
	t.mu.Unlock()
}

// Batched reports whether the transport runs the batched read loop.
func (t *UDPTransport) Batched() bool { return t.batch > 0 }

// LocalAddr returns the bound socket address.
func (t *UDPTransport) LocalAddr() string { return t.local }

// SetReceiver installs the inbound handler. Like Close and SetBatchEnd
// it waits for a batch in delivery to end, so none of the three may be
// called from the transport's own Receiver.
func (t *UDPTransport) SetReceiver(r Receiver) {
	t.mu.Lock()
	t.recv = r
	t.mu.Unlock()
}

// Stats snapshots the transport's datagram and syscall counters.
func (t *UDPTransport) Stats() TransportStats {
	return TransportStats{
		RxPackets:   t.rxPackets.Load(),
		RxBatches:   t.rxBatches.Load(),
		RxTruncated: t.rxTruncated.Load(),
		TxPackets:   t.txPackets.Load(),
		TxDropped:   t.txDropped.Load(),
	}
}

// PoolStats returns the buffer pool's lifetime gets and puts. After
// Close the two are equal; a difference is a leaked buffer.
func (t *UDPTransport) PoolStats() (gets, puts uint64) { return t.pool.Stats() }

// Close stops the read loop, releases the socket and returns every
// pooled buffer. It is idempotent and must not be called from the
// transport's own Receiver (it waits for the read loop to exit).
func (t *UDPTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.done)
		err = t.conn.Close()
		<-t.loopDone
	})
	return err
}
