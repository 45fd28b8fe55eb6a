//go:build linux && (amd64 || arm64)

// Batched UDP receive: recvmmsg moves up to BatchSize datagrams per
// kernel crossing, and SO_REUSEPORT lets N sockets share one port so
// read loops scale across cores. Everything here is built on the stdlib
// syscall package (raw mmsghdr layout, 64-bit linux only — hence the
// build tag); other platforms use the portable loop in udp.go.
package transport

import (
	"context"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

const batchCapable = true

// reusePortAvailable gates SO_REUSEPORT listener sharding.
const reusePortAvailable = true

// soReusePort is SO_REUSEPORT, which the stdlib syscall package does
// not export (golang.org/x/sys/unix spells it the same way).
const soReusePort = 0xf

// listenUDPConn binds a UDP socket, optionally with SO_REUSEPORT so
// sibling shards can bind the same port and let the kernel spray
// inbound flows across them by 4-tuple hash.
func listenUDPConn(addr string, reuse bool) (*net.UDPConn, error) {
	if !reuse {
		return listenPlainUDP(addr)
	}
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit linux:
// a msghdr plus the per-message byte count recvmmsg writes back,
// padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sockPort converts a host-order port to the network-order uint16 the
// raw sockaddr stores, independent of host endianness.
func sockPort(p uint16) uint16 {
	var v uint16
	b := (*[2]byte)(unsafe.Pointer(&v))
	b[0] = byte(p >> 8)
	b[1] = byte(p)
	return v
}

// portFromSock is the inverse of sockPort.
func portFromSock(v uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&v))
	return uint16(b[0])<<8 | uint16(b[1])
}

// putSockaddr fills rsa with ap and returns the sockaddr length. On a
// v6 (or dual-stack) socket v4 destinations are written as v4-mapped
// v6, as the kernel requires. Returns 0 for an unroutable pairing
// (v6 destination on a v4 socket).
func putSockaddr(rsa *syscall.RawSockaddrInet6, ap netip.AddrPort, v6 bool) uint32 {
	if !v6 {
		if !ap.Addr().Is4() {
			return 0
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		sa.Family = syscall.AF_INET
		sa.Port = sockPort(ap.Port())
		sa.Addr = ap.Addr().As4()
		return syscall.SizeofSockaddrInet4
	}
	rsa.Family = syscall.AF_INET6
	rsa.Port = sockPort(ap.Port())
	rsa.Addr = ap.Addr().As16()
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes the kernel-written source address of one
// received datagram without allocating.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), portFromSock(sa.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr).Unmap(), portFromSock(rsa.Port))
	}
	return netip.AddrPort{}
}

// batchReader owns the recvmmsg scatter state for one read loop: K
// pooled buffers, their iovecs and sockaddr slots, wired once at
// construction so the per-batch work is one namelen reset pass and one
// syscall. A UDPTransport's loop reads its one socket through the
// runtime netpoller (rc, read); a LegPool's loop owns its fds and calls
// recv on whichever is ready.
type batchReader struct {
	rc    syscall.RawConn // nil when the owner polls for itself
	pool  *BufPool
	bufs  [][]byte
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	msgs  []mmsghdr

	// readFn is bound once so the per-batch RawConn.Read call carries
	// no closure allocation; results land in rN/rErr.
	readFn func(fd uintptr) bool
	rN     int
	rErr   syscall.Errno
}

func newBatchReader(pool *BufPool, k int) *batchReader {
	br := &batchReader{
		pool:  pool,
		bufs:  make([][]byte, k),
		iovs:  make([]syscall.Iovec, k),
		names: make([]syscall.RawSockaddrInet6, k),
		msgs:  make([]mmsghdr, k),
	}
	for i := 0; i < k; i++ {
		buf := pool.Get()
		br.bufs[i] = buf
		br.iovs[i].Base = &buf[0]
		br.iovs[i].SetLen(len(buf))
		br.msgs[i].hdr.Iov = &br.iovs[i]
		br.msgs[i].hdr.Iovlen = 1
		br.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&br.names[i]))
	}
	br.readFn = br.readRaw
	return br
}

// arm resets what the kernel wrote back into the slots on the last
// receive, ready for the next.
func (br *batchReader) arm() {
	for i := range br.msgs {
		br.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
	}
}

// recvmmsg is one non-blocking receive on fd into armed slots. It
// returns the datagrams received, or 0 and the error (EAGAIN when
// nothing is queued).
func (br *batchReader) recvmmsg(fd uintptr) (int, syscall.Errno) {
	for {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&br.msgs[0])), uintptr(len(br.msgs)),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			return int(r1), 0
		case syscall.EINTR:
			continue
		default:
			return 0, errno
		}
	}
}

// recv drains up to K datagrams queued on fd without blocking; a
// transient per-datagram error (e.g. a queued ICMP) reads as none.
func (br *batchReader) recv(fd int) int {
	br.arm()
	n, _ := br.recvmmsg(uintptr(fd))
	return n
}

// readRaw is the netpoller callback: one recvmmsg attempt, parking on
// EAGAIN. Results are reported through rN/rErr.
func (br *batchReader) readRaw(fd uintptr) bool {
	br.rN, br.rErr = br.recvmmsg(fd)
	return br.rErr != syscall.EAGAIN // EAGAIN: park in the netpoller until readable
}

// read blocks until at least one datagram is available (via the
// runtime netpoller) and drains up to K in one recvmmsg. It returns
// the number received; err is non-nil only when the socket is gone.
func (br *batchReader) read() (int, error) {
	br.arm()
	if err := br.rc.Read(br.readFn); err != nil {
		return 0, err
	}
	if br.rErr != 0 {
		// Transient per-datagram error (e.g. a queued ICMP); the loop
		// treats it like an empty batch and keeps reading.
		return 0, nil
	}
	return br.rN, nil
}

// datagram returns the i-th received payload, valid until the next
// read. ok is false when the datagram did not fit its buffer: the
// kernel cut it short (MSG_TRUNC), and the caller drops it.
func (br *batchReader) datagram(i int) (data []byte, ok bool) {
	m := &br.msgs[i]
	return br.bufs[i][:m.n], m.hdr.Flags&msgTrunc == 0
}

// src returns the i-th datagram's source address.
func (br *batchReader) src(i int) netip.AddrPort {
	return sockaddrToAddrPort(&br.names[i])
}

func (br *batchReader) close() {
	for _, b := range br.bufs {
		br.pool.Put(b)
	}
}

// runBatch is the batched read loop. It reports false if batch setup
// failed, in which case the caller falls back to the portable loop.
func (t *UDPTransport) runBatch() bool {
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return false
	}
	br := newBatchReader(t.pool, t.batch)
	br.rc = rc
	defer br.close()
	for {
		n, err := br.read()
		if err != nil {
			// RawConn.Read only errors once the socket is closed or
			// otherwise unusable; the loop is done either way.
			return true
		}
		if n == 0 {
			continue
		}
		t.rxBatches.Add(1)
		t.mu.RLock()
		recv, hook := t.recv, t.batchEnd
		pkts := 0
		for i := 0; i < n; i++ {
			data, ok := br.datagram(i)
			if !ok {
				t.rxTruncated.Add(1)
				continue
			}
			pkts++
			if recv != nil {
				recv(t.addrs.intern(br.src(i)), data)
			}
		}
		t.rxPackets.Add(uint64(pkts))
		if hook != nil {
			hook()
		}
		t.mu.RUnlock()
	}
}
