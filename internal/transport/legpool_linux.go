//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// legReadSlots is the width of the pool's one batch reader. A ready
	// leg rarely holds more than a packet or two; a wider reader would
	// only be more buffers to keep warm.
	legReadSlots = 8
	// legEvents is how many ready legs one epoll_wait may report.
	legEvents = 128
	// legYield is how often, at most, the loop passes through the Go
	// scheduler; see loop.
	legYield = 5 * time.Millisecond
)

// legIO is the pool's reader on linux: an epoll instance of its own
// holding every leg's fd level-triggered, and one goroutine blocked in
// epoll_wait on it. The fds are raw sockets the runtime never sees: a
// net.UDPConn (or an os.File, or a net.FilePacketConn) would also sit in
// the runtime netpoller's edge-triggered epoll set and wake a runtime
// thread for every datagram on top of this one.
type legIO struct {
	epfd int
	wake [2]int // a pipe: its read end is in the epoll set, stop writes to the other
	done chan struct{}
}

// legSock is a leg's socket: a non-blocking fd, and the sockaddr of the
// peer it last sent to.
type legSock struct {
	// sendMu serializes Send and guards the fields below; fd is also
	// read by the loop under leg.mu, so closeSocket takes both.
	sendMu  sync.Mutex
	fd      int // -1 once closed
	peer    string
	peerSA  syscall.RawSockaddrInet6
	peerLen uint32
}

// startIO creates the epoll instance and starts the loop. Called with
// p.mu held.
func (p *LegPool) startIO() (*legIO, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("epoll_create1", err)
	}
	io := &legIO{epfd: epfd, done: make(chan struct{})}
	if err := syscall.Pipe2(io.wake[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, os.NewSyscallError("pipe2", err)
	}
	// Port 0 names no leg, so the loop looks the wake-up up and finds
	// nothing to read.
	if err := io.watch(io.wake[0], 0); err != nil {
		io.closeFDs()
		return nil, err
	}
	go p.loop(io)
	return io, nil
}

// watch adds fd to the epoll set, level-triggered, tagged with the port
// the loop finds its leg under.
func (io *legIO) watch(fd, port int) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd), Pad: int32(port)}
	return os.NewSyscallError("epoll_ctl", syscall.EpollCtl(io.epfd, syscall.EPOLL_CTL_ADD, fd, &ev))
}

// stop ends the loop and waits for it. The pool is marked closed by
// now, so nothing adds to the epoll set any more.
func (io *legIO) stop() {
	syscall.Write(io.wake[1], []byte{0}) // the pipe is empty: this cannot fail short of a bug
	<-io.done
	io.closeFDs()
}

func (io *legIO) closeFDs() {
	syscall.Close(io.epfd)
	syscall.Close(io.wake[0])
	syscall.Close(io.wake[1])
}

// bind opens a leg on port (0 picks an ephemeral one) and puts it in
// the epoll set. Called with p.mu held.
func (p *LegPool) bind(port int) (*leg, error) {
	var family int
	var sa syscall.Sockaddr
	if p.addr.Is6() {
		family, sa = syscall.AF_INET6, &syscall.SockaddrInet6{Port: port, Addr: p.addr.As16()}
	} else {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: port, Addr: p.addr.As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	fail := func(call string, err error) (*leg, error) {
		syscall.Close(fd)
		return nil, &net.OpError{Op: "listen", Net: "udp",
			Addr: net.UDPAddrFromAddrPort(netip.AddrPortFrom(p.addr, uint16(port))),
			Err:  os.NewSyscallError(call, err)}
	}
	if err := syscall.Bind(fd, sa); err != nil {
		return fail("bind", err)
	}
	if port == 0 {
		bound, err := syscall.Getsockname(fd)
		if err != nil {
			return fail("getsockname", err)
		}
		switch b := bound.(type) {
		case *syscall.SockaddrInet4:
			port = b.Port
		case *syscall.SockaddrInet6:
			port = b.Port
		}
	}
	l := p.newLeg(port)
	l.fd = fd
	if err := p.io.watch(fd, port); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	return l, nil
}

// loop is the pool's one reader. Every return from epoll_wait serves
// all the legs that are ready, so when the loop falls behind they share
// the wake-up; nothing is ever held back to widen that batch — a batch
// is served in arrival order, and the freshest packet would wait for
// all the others.
//
// The loop never parks, and to the runtime's monitor thread a goroutine
// that has held its P for 10 ms without passing through the scheduler
// is a hog: it cannot preempt one that is inside a syscall, so from
// then on it takes the P away during every epoll_wait, and every return
// finds no P, takes an idle one and wakes the monitor with a futex —
// two more syscalls and a second thread wake-up for each of ours. A
// Gosched every legYield, after a drain, keeps the loop out of that
// state; with nothing else runnable it comes straight back.
func (p *LegPool) loop(io *legIO) {
	defer close(io.done)
	rd := newBatchReader(p.pool, legReadSlots)
	defer rd.close()
	events := make([]syscall.EpollEvent, legEvents)
	ready := make([]*leg, 0, legEvents)
	yielded := time.Now()
	for {
		n, err := syscall.EpollWait(io.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return // the epoll fd is ours until stop: not reached
		}
		p.mu.Lock()
		closed := p.closed
		ready = ready[:0]
		for i := range events[:n] {
			// A leg closed since the event was queued is no longer
			// found; one that took over its port has its own event.
			if l := p.legs[int(events[i].Pad)]; l != nil {
				ready = append(ready, l)
			}
		}
		p.mu.Unlock()
		if closed {
			return
		}
		moved := 0
		for _, l := range ready {
			moved += l.drain(rd)
		}
		if moved > 0 {
			p.rxWakeups.Add(1)
			p.rxPackets.Add(uint64(moved))
		}
		if time.Since(yielded) > legYield {
			yielded = time.Now()
			runtime.Gosched()
		}
	}
}

// drain moves what is queued on the leg's socket to its receiver and
// returns the number of datagrams: one recvmmsg, and a second only when
// the first filled every slot. More than that stays queued — the fd is
// level-triggered, so the next epoll_wait reports it again, after the
// other legs had their turn. A parked leg has no receiver and its
// datagrams go nowhere; a datagram cut short goes nowhere either, and
// is counted but not returned.
func (l *leg) drain(rd *batchReader) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.fd < 0 {
		return 0
	}
	moved := 0
	for pass := 0; pass < 2; pass++ {
		n := rd.recv(l.fd)
		for i := 0; i < n; i++ {
			data, ok := rd.datagram(i)
			if !ok {
				l.p.rxTruncated.Add(1)
				continue
			}
			moved++
			if l.recv != nil {
				l.recv(l.p.addrs.intern(rd.src(i)), data)
			}
		}
		if n < legReadSlots {
			break
		}
	}
	return moved
}

// Send transmits a datagram with one non-blocking sendto straight from
// data. A full socket buffer, an unresolvable dst or any other error
// drops the datagram and counts it (UDP semantics: nothing is reported
// to the caller), so a Receiver that sends — the relay — never blocks
// the loop.
func (l *leg) Send(dst string, data []byte) {
	l.sendMu.Lock()
	ok := l.sendLocked(dst, data)
	l.sendMu.Unlock()
	if ok {
		l.p.txPackets.Add(1)
	} else {
		l.p.txDropped.Add(1)
	}
}

func (l *leg) sendLocked(dst string, data []byte) bool {
	if l.fd < 0 {
		return false
	}
	if dst != l.peer || l.peerLen == 0 {
		ap, ok := l.p.addrs.toAddrPort(dst)
		if !ok {
			return false
		}
		l.peer, l.peerLen = dst, putSockaddr(&l.peerSA, ap, l.p.addr.Is6())
		if l.peerLen == 0 {
			return false // a v6 destination on a v4 socket
		}
	}
	var base unsafe.Pointer
	if len(data) > 0 {
		base = unsafe.Pointer(&data[0])
	}
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(l.fd),
			uintptr(base), uintptr(len(data)), syscall.MSG_DONTWAIT,
			uintptr(unsafe.Pointer(&l.peerSA)), uintptr(l.peerLen))
		if errno != syscall.EINTR {
			return errno == 0
		}
	}
}

// closeSocket closes the fd, which also takes it out of the epoll set
// (it was never duplicated). It waits out the loop and any Send on it,
// so the number cannot be reused under either. Idempotent.
func (l *leg) closeSocket() error {
	l.mu.Lock()
	l.sendMu.Lock()
	fd := l.fd
	l.fd = -1
	l.sendMu.Unlock()
	l.mu.Unlock()
	if fd < 0 {
		return nil
	}
	return os.NewSyscallError("close", syscall.Close(fd))
}
