//go:build linux && (amd64 || arm64)

// Batched UDP syscalls: recvmmsg/sendmmsg move up to BatchSize
// datagrams per kernel crossing, and SO_REUSEPORT lets N sockets share
// one port so read loops scale across cores. Everything here is built
// on the stdlib syscall package (raw mmsghdr layout, 64-bit little-
// endian linux only — hence the build tag); other platforms use the
// portable loop in udp.go.
package transport

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"
)

const batchCapable = true

// reusePortAvailable gates SO_REUSEPORT listener sharding.
const reusePortAvailable = true

// soReusePort is SO_REUSEPORT, which the stdlib syscall package does
// not export (golang.org/x/sys/unix spells it the same way).
const soReusePort = 0xf

// UDP segmentation/coalescing offload constants (linux/udp.h). A
// UDP_SEGMENT cmsg on send hands the kernel one buffer it segments
// into wire datagrams after a single pass through the stack; UDP_GRO
// on a socket delivers such batches coalesced, with the segment size
// reported back in a cmsg. For equal-size single-destination streams
// (exactly an RTP relay's traffic) this amortizes the ~1µs per-packet
// stack traversal, which dwarfs what recvmmsg/sendmmsg alone save.
const (
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104

	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS ceiling per GSO send.
	maxGSOSegs = 64
	// maxUDPPayload is the largest UDP payload (and so the largest
	// GRO aggregate a socket can deliver).
	maxUDPPayload = 65507
)

// batchBufSize is the default buffer size on the batched path: big
// enough for any GRO aggregate.
const batchBufSize = 65535

// enableGRO switches on receive-side UDP segment coalescing. Failure
// (pre-5.0 kernels) is harmless: batches then arrive pre-segmented.
func enableGRO(conn *net.UDPConn) bool {
	rc, err := conn.SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); err != nil {
		return false
	}
	return serr == nil
}

// probeGSO reports whether the kernel understands UDP_SEGMENT
// (setting it to 0 is a no-op on ≥4.18, ENOPROTOOPT before).
func probeGSO(rc syscall.RawConn) bool {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0)
	}); err != nil {
		return false
	}
	return serr == nil
}

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
// a msghdr plus the per-message byte count recvmmsg/sendmmsg write
// back, padded to 8-byte alignment.
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
	ctrls [][]byte // per-message cmsg space for the UDP_GRO segment size

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
		ctrls: make([][]byte, k),
	}
	for i := 0; i < k; i++ {
		buf := pool.Get()
		br.bufs[i] = buf
		br.iovs[i].Base = &buf[0]
		br.iovs[i].SetLen(len(buf))
		br.msgs[i].hdr.Iov = &br.iovs[i]
		br.msgs[i].hdr.Iovlen = 1
		br.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&br.names[i]))
		br.ctrls[i] = make([]byte, syscall.CmsgSpace(2))
		br.msgs[i].hdr.Control = &br.ctrls[i][0]
	}
	br.readFn = br.readRaw
	return br
}

// arm resets what the kernel wrote back into the slots on the last
// receive, ready for the next.
func (br *batchReader) arm() {
	for i := range br.msgs {
		br.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		br.msgs[i].hdr.SetControllen(len(br.ctrls[i]))
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

// datagram returns the i-th received payload, valid until the next read.
func (br *batchReader) datagram(i int) []byte { return br.bufs[i][:br.msgs[i].n] }

// src returns the i-th datagram's source address.
func (br *batchReader) src(i int) netip.AddrPort {
	return sockaddrToAddrPort(&br.names[i])
}

// gsoSize returns the GRO segment size of the i-th delivery, or 0
// when it is a plain datagram. UDP_GRO is the only cmsg enabled on
// the socket, so a single-header check suffices.
func (br *batchReader) gsoSize(i int) int {
	if int(br.msgs[i].hdr.Controllen) < syscall.CmsgLen(2) {
		return 0
	}
	cb := br.ctrls[i]
	ch := (*syscall.Cmsghdr)(unsafe.Pointer(&cb[0]))
	if ch.Level != solUDP || ch.Type != udpGRO {
		return 0
	}
	return int(*(*uint16)(unsafe.Pointer(&cb[syscall.CmsgLen(0)])))
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
	if t.pool.Size() >= maxUDPPayload {
		// Buffers can hold a full aggregate, so let the kernel deliver
		// GSO batches uncut; the split below restores wire framing.
		// The fallback loop never sees GRO: it only runs when the
		// reader above failed to construct, before this point.
		enableGRO(t.conn)
	}
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
			src := t.addrs.intern(br.src(i))
			data := br.datagram(i)
			seg := br.gsoSize(i)
			if seg <= 0 || len(data) <= seg {
				pkts++
				if recv != nil {
					recv(src, data)
				}
				continue
			}
			// A GRO aggregate: equal-size wire datagrams back to
			// back, the last possibly short.
			for off := 0; off < len(data); off += seg {
				end := off + seg
				if end > len(data) {
					end = len(data)
				}
				pkts++
				if recv != nil {
					recv(src, data[off:end])
				}
			}
		}
		t.rxPackets.Add(uint64(pkts))
		if hook != nil {
			hook()
		}
		t.mu.RUnlock()
	}
}

// sendQueue coalesces outbound datagrams into sendmmsg flushes. Slots
// (pooled buffer, iovec, sockaddr) are wired once; QueueSend copies
// the payload into its slot — the caller keeps ownership of data, the
// same contract as Send — and Flush moves the pending run in as few
// syscalls as the kernel accepts. On GSO-capable kernels a flush
// first coalesces consecutive same-destination, same-size datagrams
// (an RTP stream) into single UDP_SEGMENT wire messages, so the whole
// run crosses the UDP stack once and is cut into wire datagrams at
// the very bottom.
type sendQueue struct {
	t    *UDPTransport
	rc   syscall.RawConn
	pool *BufPool
	v6   bool
	gso  bool

	mu      sync.Mutex
	closed  bool
	pending int
	bufs    [][]byte
	iovs    []syscall.Iovec
	names   []syscall.RawSockaddrInet6
	nls     []uint32         // sockaddr length per slot
	aps     []netip.AddrPort // destination per slot, for run detection

	// wire is the per-flush sendmmsg array: one entry per plain
	// datagram or GSO run, its iovecs pointing straight at the slots.
	wire     []mmsghdr
	wireSegs []int    // datagrams carried by each wire entry
	cmsgs    [][]byte // preformatted UDP_SEGMENT cmsg per wire entry

	// writeFn is bound once so per-flush RawConn.Write calls carry no
	// closure allocation; wSent/wTotal are the input cursor and limit,
	// wN/wErr the results.
	writeFn func(fd uintptr) bool
	wSent   int
	wTotal  int
	wN      int
	wErr    syscall.Errno
}

func newSendQueue(t *UDPTransport) (*sendQueue, error) {
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	k := t.batch
	q := &sendQueue{
		t:        t,
		rc:       rc,
		pool:     t.pool,
		v6:       t.v6,
		gso:      probeGSO(rc),
		bufs:     make([][]byte, k),
		iovs:     make([]syscall.Iovec, k),
		names:    make([]syscall.RawSockaddrInet6, k),
		nls:      make([]uint32, k),
		aps:      make([]netip.AddrPort, k),
		wire:     make([]mmsghdr, k),
		wireSegs: make([]int, k),
		cmsgs:    make([][]byte, k),
	}
	for i := 0; i < k; i++ {
		buf := q.pool.Get()
		q.bufs[i] = buf
		q.iovs[i].Base = &buf[0]
		cb := make([]byte, syscall.CmsgSpace(2))
		ch := (*syscall.Cmsghdr)(unsafe.Pointer(&cb[0]))
		ch.Level = solUDP
		ch.Type = udpSegment
		ch.SetLen(syscall.CmsgLen(2))
		q.cmsgs[i] = cb
	}
	q.writeFn = q.writeRaw
	return q, nil
}

// writeRaw is the netpoller callback: one sendmmsg attempt over the
// wire entries from wSent, parking on EAGAIN.
func (q *sendQueue) writeRaw(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&q.wire[q.wSent])), uintptr(q.wTotal-q.wSent),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			q.wN, q.wErr = int(r1), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // park until writable
		default:
			q.wN, q.wErr = 0, errno
			return true
		}
	}
}

func (q *sendQueue) queue(ap netip.AddrPort, data []byte) {
	if len(data) > q.pool.Size() {
		q.t.sendNow(ap, data) // oversized: bypass the slot buffers
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	i := q.pending
	nl := putSockaddr(&q.names[i], ap, q.v6)
	if nl == 0 {
		q.mu.Unlock()
		return // unroutable address family for this socket
	}
	copy(q.bufs[i], data)
	q.iovs[i].SetLen(len(data))
	q.nls[i] = nl
	q.aps[i] = ap
	q.pending++
	if q.pending == len(q.bufs) {
		q.flushLocked()
	}
	q.mu.Unlock()
}

func (q *sendQueue) flush() {
	q.mu.Lock()
	q.flushLocked()
	q.mu.Unlock()
}

func (q *sendQueue) flushLocked() {
	if q.pending == 0 {
		return
	}
	// Build the wire messages. A run of ≥2 consecutive datagrams to
	// one destination with one size becomes a single GSO entry whose
	// iovecs span the run's slots; everything else goes as-is.
	w := 0
	for i := 0; i < q.pending; {
		segSize := int(q.iovs[i].Len)
		j := i + 1
		if q.gso && segSize > 0 {
			for j < q.pending && j-i < maxGSOSegs &&
				q.aps[j] == q.aps[i] &&
				int(q.iovs[j].Len) == segSize &&
				(j-i+1)*segSize <= maxUDPPayload {
				j++
			}
		}
		e := &q.wire[w]
		e.hdr.Name = (*byte)(unsafe.Pointer(&q.names[i]))
		e.hdr.Namelen = q.nls[i]
		e.hdr.Iov = &q.iovs[i]
		e.hdr.Iovlen = uint64(j - i)
		if j-i > 1 {
			cb := q.cmsgs[w]
			*(*uint16)(unsafe.Pointer(&cb[syscall.CmsgLen(0)])) = uint16(segSize)
			e.hdr.Control = &cb[0]
			e.hdr.SetControllen(len(cb))
		} else {
			e.hdr.Control = nil
			e.hdr.Controllen = 0
		}
		q.wireSegs[w] = j - i
		w++
		i = j
	}
	q.wTotal = w
	q.wSent = 0
	for q.wSent < w {
		err := q.rc.Write(q.writeFn)
		if err != nil || q.wErr != 0 {
			var dropped uint64
			for x := q.wSent; x < w; x++ {
				dropped += uint64(q.wireSegs[x])
			}
			q.t.txDropped.Add(dropped)
			break
		}
		var sent uint64
		for x := q.wSent; x < q.wSent+q.wN; x++ {
			sent += uint64(q.wireSegs[x])
		}
		q.t.txPackets.Add(sent)
		q.t.txBatches.Add(1)
		q.wSent += q.wN
	}
	q.pending = 0
}

// close drops the pending tail, counting it as dropped (the socket is
// already gone when the transport closes), and returns the slot buffers
// to the pool.
func (q *sendQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.t.txDropped.Add(uint64(q.pending))
	q.pending = 0
	for _, b := range q.bufs {
		q.pool.Put(b)
	}
}
