//go:build !(linux && (amd64 || arm64))

// Portable stubs for platforms without the raw recvmmsg/sendmmsg
// layout (non-linux, or 32-bit linux): the transport always runs the
// single-datagram loop, QueueSend degrades to Send, and SO_REUSEPORT
// sharding collapses to a single listener.
package transport

import (
	"net"
	"net/netip"
)

const batchCapable = false

const reusePortAvailable = false

// batchBufSize is unused here (no batched path); poolFor needs it to
// compile.
const batchBufSize = MaxDatagram

func listenUDPConn(addr string, reuse bool) (*net.UDPConn, error) {
	return listenPlainUDP(addr)
}

// runBatch never runs on this platform.
func (t *UDPTransport) runBatch() bool { return false }

// sendQueue is never constructed on this platform; the methods exist
// so udp.go compiles unchanged.
type sendQueue struct{}

func newSendQueue(t *UDPTransport) (*sendQueue, error) { return nil, nil }

func (q *sendQueue) queue(ap netip.AddrPort, data []byte) {}
func (q *sendQueue) flush()                               {}
func (q *sendQueue) close()                               {}
