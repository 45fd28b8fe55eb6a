//go:build !(linux && (amd64 || arm64))

package transport

import (
	"errors"
	"net"
	"net/netip"
)

// legIO has nothing to hold on platforms without the raw epoll /
// recvmmsg path: each leg reads its own net.UDPConn.
type legIO struct{}

func (p *LegPool) startIO() (*legIO, error) { return &legIO{}, nil }

func (io *legIO) stop() {}

// legSock is a leg's socket and the goroutine reading it.
type legSock struct {
	conn *net.UDPConn
	done chan struct{}
}

// bind opens a leg on port (0 picks an ephemeral one) and starts its
// reader. Called with p.mu held.
func (p *LegPool) bind(port int) (*leg, error) {
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(p.addr, uint16(port))))
	if err != nil {
		return nil, err
	}
	l := p.newLeg(conn.LocalAddr().(*net.UDPAddr).Port)
	l.conn, l.done = conn, make(chan struct{})
	go l.read()
	return l, nil
}

// read is the leg's reader; every datagram is its own wake-up. A parked
// leg has no receiver and its datagrams go nowhere; a datagram cut
// short goes nowhere either, and is counted.
func (l *leg) read() {
	defer close(l.done)
	buf := l.p.pool.Get()
	defer l.p.pool.Put(buf)
	for {
		n, _, flags, src, err := l.conn.ReadMsgUDPAddrPort(buf, nil)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue // transient error on a datagram socket
		}
		if flags&msgTrunc != 0 {
			l.p.rxTruncated.Add(1)
			continue
		}
		l.p.rxPackets.Add(1)
		l.p.rxWakeups.Add(1)
		l.mu.RLock()
		if l.recv != nil {
			l.recv(l.p.addrs.intern(src), buf[:n])
		}
		l.mu.RUnlock()
	}
}

// Send transmits a datagram; an unresolvable dst or a write error drops
// and counts it.
func (l *leg) Send(dst string, data []byte) {
	ap, ok := l.p.addrs.toAddrPort(dst)
	if ok {
		_, err := l.conn.WriteToUDPAddrPort(data, ap)
		ok = err == nil
	}
	if ok {
		l.p.txPackets.Add(1)
	} else {
		l.p.txDropped.Add(1)
	}
}

// closeSocket closes the socket and waits for the reader to exit.
func (l *leg) closeSocket() error {
	err := l.conn.Close()
	<-l.done
	if errors.Is(err, net.ErrClosed) {
		return nil // closed before
	}
	return err
}
