//go:build !(linux && (amd64 || arm64))

// Portable stubs for platforms without the raw recvmmsg layout
// (non-linux, or 32-bit linux): the transport always runs the
// single-datagram loop, and SO_REUSEPORT sharding collapses to a single
// listener.
package transport

import "net"

const batchCapable = false

const reusePortAvailable = false

func listenUDPConn(addr string, reuse bool) (*net.UDPConn, error) {
	return listenPlainUDP(addr)
}

// runBatch never runs on this platform.
func (t *UDPTransport) runBatch() bool { return false }
