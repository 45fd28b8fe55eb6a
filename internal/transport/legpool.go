package transport

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// maxParkedLegs bounds the idle sockets a LegPool keeps bound; sockets
// released beyond the bound are closed.
const maxParkedLegs = 128

// LegPool owns the sockets of a server's per-call RTP relay legs and is
// the unit of media I/O: a call borrows two legs and owns no socket, no
// goroutine and no buffer. The platform file supplies the reader — on
// linux one goroutine in its own epoll_wait over every leg's raw fd
// (legpool_linux.go), elsewhere a net.UDPConn read loop per leg
// (legpool_other.go); the policy here is the same for both.
//
// A leg's Close parks its socket in the pool, still bound and still
// read, instead of closing it, and the next Listen on that port (pbx
// recycles port numbers first-in, first-out) takes it back without a
// syscall or an allocation. A parked socket has no receiver: whatever
// arrives between Close and the next Listen is read and dropped, as
// closing the socket would have discarded it. Nothing is bound ahead of
// demand.
type LegPool struct {
	host  string
	pool  *BufPool
	addrs *addrCache

	rxPackets   atomic.Uint64
	rxWakeups   atomic.Uint64
	rxTruncated atomic.Uint64
	txPackets   atomic.Uint64
	txDropped   atomic.Uint64

	mu     sync.Mutex
	addr   netip.Addr   // host, resolved by the first Listen
	io     *legIO       // the platform's reader, started by the first Listen
	legs   map[int]*leg // every bound socket by port, parked or handed out
	closed bool
	stats  LegPoolStats // Binds, Reuses, OverflowCloses and Parked; Stats fills in the rest
}

// leg is one relay socket. legSock is the platform's half: the socket
// itself, Send and closeSocket.
type leg struct {
	p      *LegPool
	port   int
	local  string
	parked bool // guarded by p.mu

	// mu guards recv. The reader holds it shared from reading the socket
	// to the end of the delivery, so SetReceiver and Close return only
	// once nothing is in flight to the receiver they replaced.
	mu   sync.RWMutex
	recv Receiver

	legSock
}

// LegPoolStats counts what the pool did with its sockets and what
// crossed them. Binds + Reuses is the number of legs handed out; a
// reuse is a bind and a close that did not happen. RxPackets /
// RxWakeups is the achieved datagrams per wake-up of the reader.
type LegPoolStats struct {
	Binds          uint64 // legs opened with a fresh socket
	Reuses         uint64 // legs served from a parked socket
	OverflowCloses uint64 // released sockets closed because the pool was full
	Parked         int    // idle sockets bound right now
	Open           int    // sockets bound right now, parked ones included

	RxPackets   uint64 // datagrams read, those dropped on parked sockets included
	RxWakeups   uint64 // returns from the reader's wait that moved at least one datagram
	RxTruncated uint64 // datagrams longer than MaxDatagram: dropped, not in RxPackets
	TxPackets   uint64 // datagrams sent
	TxDropped   uint64 // sends the kernel refused (full buffer, or an error)
}

// NewLegPool returns an empty pool whose legs bind on host: an IPv4 or
// IPv6 literal, or a name the first Listen resolves (and reports, if it
// does not resolve).
func NewLegPool(host string) *LegPool {
	return &LegPool{
		host:  host,
		pool:  NewBufPool(MaxDatagram),
		addrs: newAddrCache(),
		legs:  make(map[int]*leg),
	}
}

// Listen returns a leg bound to port, parked or freshly bound. It has
// the shape of pbx.TransportFactory. The leg's Close gives it back to
// the pool.
func (p *LegPool) Listen(port int) (Transport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, net.ErrClosed
	}
	if l := p.legs[port]; l != nil && l.parked {
		l.parked = false
		p.stats.Parked--
		p.stats.Reuses++
		return l, nil
	}
	if p.io == nil {
		ua, err := net.ResolveUDPAddr("udp", net.JoinHostPort(p.host, "0"))
		if err != nil {
			return nil, err
		}
		addr := ua.AddrPort().Addr().Unmap()
		if !addr.IsValid() { // an empty host
			addr = netip.IPv4Unspecified()
		}
		io, err := p.startIO()
		if err != nil {
			return nil, err
		}
		p.addr, p.io = addr, io
	}
	l, err := p.bind(port)
	if err != nil {
		return nil, err
	}
	p.legs[l.port] = l
	p.stats.Binds++
	return l, nil
}

// release is Close for a leg: detach it from its owner, then park the
// socket, or close it when the pool is full. Once it returns nothing
// more reaches the old receiver.
func (p *LegPool) release(l *leg) error {
	l.SetReceiver(nil)
	p.mu.Lock()
	if p.legs[l.port] != l || l.parked { // closed before, by its owner or with the pool
		p.mu.Unlock()
		return nil
	}
	keep := p.stats.Parked < maxParkedLegs
	if keep {
		l.parked = true
		p.stats.Parked++
	} else {
		delete(p.legs, l.port)
		p.stats.OverflowCloses++
	}
	p.mu.Unlock()
	if keep {
		return nil
	}
	return l.closeSocket()
}

// newLeg returns the leg for a socket the platform just bound to port.
func (p *LegPool) newLeg(port int) *leg {
	return &leg{p: p, port: port, local: netip.AddrPortFrom(p.addr, uint16(port)).String()}
}

// LocalAddr returns the bound socket address.
func (l *leg) LocalAddr() string { return l.local }

// SetReceiver installs the inbound handler. Like Close it waits for a
// delivery in flight to end, so neither may be called from the leg's
// own Receiver.
func (l *leg) SetReceiver(r Receiver) {
	l.mu.Lock()
	l.recv = r
	l.mu.Unlock()
}

// Close hands the leg back to its pool, which may keep the socket
// bound; either way the caller is done with it. It is idempotent.
func (l *leg) Close() error { return l.p.release(l) }

// Stats snapshots the pool's counters.
func (p *LegPool) Stats() LegPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Open = len(p.legs)
	s.RxPackets, s.RxWakeups, s.RxTruncated = p.rxPackets.Load(), p.rxWakeups.Load(), p.rxTruncated.Load()
	s.TxPackets, s.TxDropped = p.txPackets.Load(), p.txDropped.Load()
	return s
}

// PoolStats returns the buffer pool's lifetime gets and puts. They are
// equal once the pool is closed.
func (p *LegPool) PoolStats() (gets, puts uint64) { return p.pool.Stats() }

// Close stops the reader, waits for it, and closes every socket, legs
// still handed out included: they go deaf, their Sends count as
// dropped and their Close is a no-op. Listen fails from here on. It
// must not be called from a leg's Receiver.
func (p *LegPool) Close() error {
	p.mu.Lock()
	legs, io := p.legs, p.io
	p.legs, p.io, p.stats.Parked, p.closed = nil, nil, 0, true
	p.mu.Unlock()
	if io != nil {
		io.stop()
	}
	var first error
	for _, l := range legs {
		l.SetReceiver(nil)
		if err := l.closeSocket(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
