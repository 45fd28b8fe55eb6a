package transport

import (
	"net"
	"strconv"
	"sync"
)

// maxParkedLegs bounds the idle sockets a LegPool keeps bound. Each
// holds a read-loop goroutine and 2 × legConfig.BatchSize slots of
// MaxDatagram bytes (128 KB), so the idle cost tops out at 16 MB;
// sockets released beyond the bound are closed.
const maxParkedLegs = 128

// legConfig tunes every relay leg: a 50 pps stream never fills a wide
// batch or a GRO aggregate, so legs run a small batch of datagram-size
// slots, which still amortizes syscalls and sends with GSO.
var legConfig = UDPConfig{BatchSize: 8, BufferSize: MaxDatagram}

// LegPool owns the sockets and buffers of a server's per-call RTP relay
// legs, so that a call borrows them and owns none. All legs draw their
// slots from one BufPool and resolve addresses through one cache, and a
// leg's Close parks its socket in the pool — still bound, read loop,
// batch reader and send queue intact — instead of destroying it. The
// next Listen on that port (pbx recycles port numbers last-in,
// first-out) takes the parked socket back without a syscall, a
// goroutine or an allocation. Nothing is bound ahead of demand.
//
// A parked socket has no receiver and no batch-end hook, and its read
// loop keeps running: whatever arrives between Close and the next
// Listen is read and dropped, as closing the socket would have
// discarded it.
type LegPool struct {
	host  string
	pool  *BufPool
	addrs *addrCache

	mu     sync.Mutex
	parked map[int]*UDPTransport // idle bound sockets, by port
	closed bool
	stats  LegPoolStats
}

// LegPoolStats counts what the pool did with its sockets. Binds +
// Reuses is the number of legs handed out; a reuse is a bind, a
// goroutine start and a close that did not happen.
type LegPoolStats struct {
	Binds          uint64 // legs opened with a fresh socket
	Reuses         uint64 // legs served from a parked socket
	OverflowCloses uint64 // released sockets closed because the pool was full
	Parked         int    // idle sockets bound right now
}

// NewLegPool returns an empty pool whose legs bind on host.
func NewLegPool(host string) *LegPool {
	return &LegPool{
		host:   host,
		pool:   poolFor(legConfig),
		addrs:  newAddrCache(),
		parked: make(map[int]*UDPTransport),
	}
}

// Listen returns a leg bound to port, parked or freshly bound. It has
// the shape of pbx.TransportFactory. The leg's Close gives it back to
// the pool.
func (p *LegPool) Listen(port int) (Transport, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, net.ErrClosed
	}
	t := p.parked[port]
	if t != nil {
		delete(p.parked, port)
		p.stats.Reuses++
	}
	p.mu.Unlock()
	if t != nil {
		t.mu.Lock()
		t.parked = false
		t.mu.Unlock()
		return t, nil
	}
	t, err := listenUDP(net.JoinHostPort(p.host, strconv.Itoa(port)), legConfig, false, p.pool, p.addrs)
	if err != nil {
		return nil, err
	}
	t.legs = p
	p.mu.Lock()
	p.stats.Binds++
	p.mu.Unlock()
	return t, nil
}

// release is Close for a leg: detach it from its owner, then park the
// socket, or close it when the pool is full or closed. Once it returns
// nothing more reaches the old receiver.
func (p *LegPool) release(t *UDPTransport) error {
	t.mu.Lock() // waits for a batch in delivery to end
	if t.parked {
		t.mu.Unlock()
		return nil
	}
	t.parked = true
	t.recv, t.batchEnd = nil, nil
	t.mu.Unlock()
	if t.sq != nil {
		t.sq.drop()
	}
	p.mu.Lock()
	keep := !p.closed && len(p.parked) < maxParkedLegs
	if keep {
		p.parked[t.conn.LocalAddr().(*net.UDPAddr).Port] = t
	} else if !p.closed {
		p.stats.OverflowCloses++
	}
	p.mu.Unlock()
	if keep {
		return nil
	}
	return t.destroy()
}

// Stats snapshots the pool's counters.
func (p *LegPool) Stats() LegPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Parked = len(p.parked)
	return s
}

// PoolStats returns the shared buffer pool's lifetime gets and puts.
// They are equal once the pool and every leg it handed out are closed.
func (p *LegPool) PoolStats() (gets, puts uint64) { return p.pool.Stats() }

// Close closes every parked socket. Legs still out are closed when
// their owners release them; Listen fails from here on.
func (p *LegPool) Close() error {
	p.mu.Lock()
	parked := p.parked
	p.parked = nil
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, t := range parked {
		if err := t.destroy(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
